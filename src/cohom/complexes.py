"""Bounded cochain complexes of labeled rational spaces.

A complex is a finite graded family K^lo..K^hi with differentials
d_k : K^k -> K^{k+1} satisfying d.d = 0; cohomology in degree k is the
subquotient ker d_k / im d_{k-1}, returned with explicit lifted-cocycle
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import (
    CohomError,
    LabeledSpace,
    LawViolation,
    LinearMap,
    Subspace,
    ZERO_SPACE,
    image_basis,
    kernel_basis,
    matrix_from_json_shaped,
    matrix_to_json,
    subquotient,
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
        if len(self.spaces) != self.hi - self.lo + 1:
            raise ValueError("wrong number of spaces for degree range")
        if len(self.diffs) != self.hi - self.lo:
            raise ValueError("wrong number of differentials for degree range")
        for i, d in enumerate(self.diffs):
            if d.domain != self.spaces[i] or d.codomain != self.spaces[i + 1]:
                raise ValueError(f"differential {self.lo + i} does not match adjacent spaces")

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
    representatives: tuple[Subspace, ...]  # per degree, lifted cocycles in K^k

    def dim(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self.dims[k - self.lo]
        return 0


def validate(k: CochainComplex) -> None:
    """Check d_{j+1} . d_j = 0 exactly for every degree j."""
    for j in range(k.lo, k.hi - 1):
        comp = k.diff(j + 1).compose(k.diff(j))
        if not comp.is_zero():
            raise NotAComplex(j)


def cohomology(k: CochainComplex) -> CohomologyReport:
    """Subquotient cohomology with lifted-cocycle representatives."""
    validate(k)
    dims = []
    reps = []
    for deg in k.degrees():
        z = kernel_basis(k.diff(deg))
        b = image_basis(k.diff(deg - 1))
        q, _proj, section = subquotient(z, b)
        dims.append(q.dim)
        reps.append(Subspace(k.space(deg), section))
        # every representative must be an exact cocycle
        d = k.diff(deg)
        for col in section.columns:
            if any(x != 0 for x in d.apply(col)):
                raise LawViolation("cohomology representatives are cocycles",
                                   f"degree {deg}")
    return CohomologyReport(k.lo, k.hi, tuple(dims), tuple(reps))


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise direct sum with block-diagonal differentials."""
    from fractions import Fraction

    zero = Fraction(0)
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    spaces = []
    for deg in range(lo, hi + 1):
        sa, sb = a.space(deg), b.space(deg)
        labels = tuple((0, lab) for lab in sa.labels) + tuple((1, lab) for lab in sb.labels)
        spaces.append(LabeledSpace(labels))
    diffs = []
    for deg in range(lo, hi):
        da, db = a.diff(deg), b.diff(deg)
        na, nb = da.domain.dim, db.domain.dim
        rows = []
        for r in da.matrix:
            rows.append(tuple(r) + (zero,) * nb)
        for r in db.matrix:
            rows.append((zero,) * na + tuple(r))
        diffs.append(LinearMap(spaces[deg - lo], spaces[deg - lo + 1], tuple(rows)))
    return CochainComplex(lo, hi, tuple(spaces), tuple(diffs))


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
    lo, hi = int(data["lo"]), int(data["hi"])
    dims = [int(d) for d in data["dims"]]
    if len(dims) != hi - lo + 1:
        raise ValueError("dims length does not match degree range")
    spaces = tuple(LabeledSpace(tuple((lo + i, j) for j in range(d)))
                   for i, d in enumerate(dims))
    raw = data["diffs"]
    if len(raw) != hi - lo:
        raise ValueError("diffs length does not match degree range")
    diffs = []
    for i, rows in enumerate(raw):
        try:
            mat = matrix_from_json_shaped(rows, dims[i + 1], dims[i])
        except ValueError as e:
            raise ValueError(f"differential {lo + i}: {e}")
        diffs.append(LinearMap(spaces[i], spaces[i + 1], mat))
    return CochainComplex(lo, hi, spaces, tuple(diffs))
