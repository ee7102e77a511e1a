"""Bounded cochain complexes of labeled rational spaces.

A complex is a finite graded family K^lo..K^hi with differentials
d_k : K^k -> K^{k+1} satisfying d.d = 0, which `validate` checks when
the complex is built; cohomology in degree k is the subquotient
ker d_k / im d_{k-1}.

Two entry points compute it.  `cohomology` returns explicit
lifted-cocycle representatives, read off one fraction-free column
reduction of each d_k (`linalg.reduce_columns`); `cohom complex` and
`cohom cech` print them.  `cohomology_dims` counts dimensions by rank
alone (dim K^k - rank d_k - rank d_{k-1}) and serves the callers that
read dimensions only: `cohom hyper` and the convergence certificate.
`cohom derham` counts its Koszul pieces with the same rule,
`linalg.dims_from_ranks`, from integer rows that `forms` ranks directly.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import (
    CohomError,
    LabeledSpace,
    LawViolation,
    LinearMap,
    Record,
    ZERO_SPACE,
    _echelon,
    check_declared_dim,
    dims_from_ranks,
    int_from_json,
    map_from_json,
    matrix_to_json,
    products_agree,
    quotient,
    rank,
    reduce_columns,
)


class NotAComplex(CohomError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"d . d != 0 starting at degree {degree}")


class CochainComplex(Record):
    lo: int
    hi: int
    spaces: tuple[LabeledSpace, ...]   # indexed by k - lo, length hi - lo + 1
    diffs: tuple[LinearMap, ...]       # diffs[i] : K^{lo+i} -> K^{lo+i+1}

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty degree range")
        if not isinstance(self.spaces, tuple) or not isinstance(self.diffs, tuple):
            raise ValueError("spaces and diffs must be tuples, so the complex hashes")
        if len(self.spaces) != self.hi - self.lo + 1:
            raise ValueError("wrong number of spaces for degree range")
        if len(self.diffs) != self.hi - self.lo:
            raise ValueError("wrong number of differentials for degree range")
        for i, d in enumerate(self.diffs):
            if d.domain != self.spaces[i] or d.codomain != self.spaces[i + 1]:
                raise ValueError(f"differential {self.lo + i} does not match adjacent spaces")
        validate(self)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def space(self, k: int) -> LabeledSpace:
        if self.lo <= k <= self.hi:
            return self.spaces[k - self.lo]
        return ZERO_SPACE

    def diff(self, k: int) -> LinearMap:
        """d_k : K^k -> K^{k+1}, the zero map outside the stored range."""
        if self.lo <= k < self.hi:
            return self.diffs[k - self.lo]
        return LinearMap.zero(self.space(k), self.space(k + 1))

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)


class CohomologyReport(Record):
    lo: int
    hi: int
    dims: tuple[int, ...]
    representatives: tuple[LinearMap, ...]  # per degree, classes -> K^k; columns are cocycles


def validate(k: CochainComplex) -> None:
    """Check d_{j+1} . d_j = 0 exactly for every degree j."""
    for j, (d, e) in enumerate(zip(k.diffs, k.diffs[1:]), k.lo):
        if not products_agree(e, d):
            raise NotAComplex(j)


def cohomology(k: CochainComplex) -> CohomologyReport:
    """Cohomology with lifted-cocycle representatives, from one column reduction.

    The columns j of d_n that reduce to zero give kernel vectors V_j / V_j[j]
    equal to the reduced-row-echelon kernel basis; the classes are the free
    columns outside the rank profile of d_{n-1} restricted to the free rows.
    Each d_n's columns are read once, for degrees n and n + 1; every
    representative is checked as a cocycle, d_n rep = 0, as it is returned.
    """
    reps = []
    prev: Sequence = ()  # the columns of d_{n-1}; none below lo
    for n, space in enumerate(k.spaces):
        d = k.diffs[n] if n < len(k.diffs) else None
        cols = d.transpose().rows if d is not None else ((),) * space.dim
        kernel = {j: v for j, _, v, low in reduce_columns(cols, range(space.dim))
                  if low is None}
        hit = _echelon([(i, x) for i, x in col if i in kernel] for col in prev)
        classes = [(c, j) for c, j in enumerate(kernel) if j not in hit]
        qspace = LabeledSpace(tuple(("cls", c) for c, _ in classes))
        reps.append(LinearMap.sparse_columns(qspace, space, [
            [(i, quotient(x, kernel[j][j])) for i, x in kernel[j].items()]
            for _, j in classes]))
        if d is not None and not products_agree(d, reps[-1]):  # each must be an exact cocycle
            raise LawViolation("cohomology representatives are cocycles",
                               f"degree {k.lo + n}")
        prev = cols
    return CohomologyReport(k.lo, k.hi, tuple(s.domain.dim for s in reps), tuple(reps))


def cohomology_dims(k: CochainComplex) -> tuple[int, ...]:
    """dim H^n = dim K^n - rank d_n - rank d_{n-1}, ranking each d once."""
    return dims_from_ranks([s.dim for s in k.spaces], [rank(d) for d in k.diffs])


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise direct sum with block-diagonal differentials."""
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    spaces = tuple(LabeledSpace(tuple((0, lab) for lab in a.space(deg).labels)
                                + tuple((1, lab) for lab in b.space(deg).labels))
                   for deg in range(lo, hi + 1))
    diffs = tuple(LinearMap.from_blocks(spaces[deg - lo], spaces[deg - lo + 1],
                                        [0, a.space(deg).dim], [0, a.space(deg + 1).dim],
                                        [(0, 0, 1, a.diff(deg)), (1, 1, 1, b.diff(deg))])
                  for deg in range(lo, hi))
    return CochainComplex(lo, hi, spaces, diffs)


def euler_characteristic(dims: Sequence[int], lo: int) -> int:
    return sum((-1) ** (lo + i) * d for i, d in enumerate(dims))


def complex_to_json(k: CochainComplex) -> dict:
    return {
        "lo": k.lo,
        "hi": k.hi,
        "dims": list(k.dims()),
        "diffs": [matrix_to_json(d.matrix) for d in k.diffs],
    }


def complex_from_json(data: dict) -> CochainComplex:
    lo = int_from_json(data["lo"], "lo", signed=True)
    hi = int_from_json(data["hi"], "hi", signed=True)
    dims = [int_from_json(d, f"dims[{i}]") for i, d in enumerate(data["dims"])]
    if len(dims) != hi - lo + 1:
        raise ValueError("dims length does not match degree range")
    check_declared_dim(sum(dims))
    spaces = tuple(LabeledSpace(tuple((lo + i, j) for j in range(d)))
                   for i, d in enumerate(dims))
    raw = data["diffs"]
    if len(raw) != hi - lo:
        raise ValueError("diffs length does not match degree range")
    diffs = tuple(map_from_json(rows, spaces[i], spaces[i + 1], f"differential {lo + i}")
                  for i, rows in enumerate(raw))
    return CochainComplex(lo, hi, spaces, diffs)
