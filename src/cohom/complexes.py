"""Bounded cochain complexes of labeled rational spaces.

A complex is a finite graded family K^lo..K^hi with differentials
d_k : K^k -> K^{k+1} satisfying d.d = 0, which `validate` checks when
the complex is built; cohomology in degree k is the subquotient
ker d_k / im d_{k-1}.

Two entry points compute it.  `cohomology` returns explicit
lifted-cocycle representatives, read off one sparse column reduction of
each d_k (`linalg.reduce_columns`); `cohom complex` and `cohom cech`
print them.  `cohomology_dims` counts dimensions by rank alone
(dim K^k - rank d_k - rank d_{k-1}) and serves the callers that read
dimensions only: `cohom hyper` and the convergence certificate.
`cohom derham` counts its Koszul pieces with the same rule,
`dims_from_ranks`, from integer rows that `forms` ranks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import (
    CohomError,
    LabeledSpace,
    LawViolation,
    LinearMap,
    ZERO_SPACE,
    _echelon,
    check_declared_dim,
    int_from_json,
    matrix_from_json_shaped,
    matrix_to_json,
    rank,
    reduce_columns,
)


class NotAComplex(CohomError):
    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"d . d != 0 starting at degree {degree}")


@dataclass(frozen=True)
class CochainComplex:
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


@dataclass(frozen=True)
class CohomologyReport:
    lo: int
    hi: int
    dims: tuple[int, ...]
    representatives: tuple[LinearMap, ...]  # per degree, classes -> K^k; columns are cocycles


def validate(k: CochainComplex) -> None:
    """Check d_{j+1} . d_j = 0 exactly for every degree j."""
    for j in range(k.lo, k.hi - 1):
        comp = k.diff(j + 1).compose(k.diff(j))
        if not comp.is_zero():
            raise NotAComplex(j)


def cohomology(k: CochainComplex) -> CohomologyReport:
    """Cohomology with lifted-cocycle representatives, from one column reduction.

    The columns j of d_n that reduce to zero give kernel vectors V_j equal
    to the reduced-row-echelon kernel basis; the classes are the free
    columns outside the rank profile of d_{n-1} restricted to the free rows.
    """
    reps = []
    for deg in k.degrees():
        space = k.space(deg)
        kernel = {j: v for j, _, v, low in reduce_columns(k.diff(deg), range(space.dim))
                  if low is None}
        hit = _echelon([(i, x) for i, x in col if i in kernel]
                       for col in k.diff(deg - 1).transpose().rows)
        classes = [(c, j) for c, j in enumerate(kernel) if j not in hit]
        qspace = LabeledSpace(tuple(("cls", c) for c, _ in classes))
        section = LinearMap.sparse(space, qspace,
                                   [kernel[j].items() for _, j in classes]).transpose()
        reps.append(section)
        # every representative must be an exact cocycle
        if not k.diff(deg).compose(section).is_zero():
            raise LawViolation("cohomology representatives are cocycles",
                               f"degree {deg}")
    return CohomologyReport(k.lo, k.hi, tuple(s.domain.dim for s in reps), tuple(reps))


def cohomology_dims(k: CochainComplex) -> tuple[int, ...]:
    """dim H^n = dim K^n - rank d_n - rank d_{n-1}, ranking each d once."""
    return dims_from_ranks([s.dim for s in k.spaces], [rank(d) for d in k.diffs])


def dims_from_ranks(sizes, ranks) -> tuple[int, ...]:
    """dim K^n - rank d_n - rank d_{n-1}, given every degree's size and every d's rank."""
    r = [0, *ranks, 0]
    return tuple(s - r[i + 1] - r[i] for i, s in enumerate(sizes))


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise direct sum with block-diagonal differentials."""
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    spaces = tuple(LabeledSpace(tuple((0, lab) for lab in a.space(deg).labels)
                                + tuple((1, lab) for lab in b.space(deg).labels))
                   for deg in range(lo, hi + 1))
    diffs = tuple(LinearMap.from_blocks(spaces[deg - lo], spaces[deg - lo + 1],
                                        [a.space(deg).dim, b.space(deg).dim],
                                        [a.space(deg + 1).dim, b.space(deg + 1).dim],
                                        {(0, 0): (1, a.diff(deg)), (1, 1): (1, b.diff(deg))})
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
    diffs = []
    for i, rows in enumerate(raw):
        mat = matrix_from_json_shaped(rows, dims[i + 1], dims[i], f"differential {lo + i}")
        diffs.append(LinearMap(spaces[i], spaces[i + 1], mat))
    return CochainComplex(lo, hi, spaces, tuple(diffs))
