"""Spectral sequences of a bounded first-quadrant double complex.

All pages come from one filtered column reduction of the total complex
(the persistence view of a spectral sequence).  For each degree n the
differential D : Tot^n -> Tot^{n+1} is reduced once, with columns and
rows ordered by (-p, index) so that a column only ever receives columns
from its own filtration step F_p = sum_{p' >= p} K^{p', n-p'}.  The
result R = D V has unique lowest nonzero rows ("lows"), and every basis
index of Tot^n is exactly one of

    an essential   R_j = 0 and j is not a low,
    a source j     paired with its target low(R_j) at distance p_low - p_j,
    a target       the low of some source in degree n - 1.

E_r^{p,q} is spanned by the essentials at p plus the sources and targets
at p whose pair distance is >= r; representatives are V_j for essentials
and sources and R_j for the target of source j.  d_r sends each source
to its target when their distance is exactly r and is zero otherwise.

The row filtration is read from the same total complex, with q in place
of p as the filtration degree: x -> (-1)^{pq} x carries Tot(K) filtered
by q onto Tot(K^T) filtered by its first index, so both give the same
pages.  Entry (p, q) of a second page refers to cell (q, p) of the input
complex, so that d_r always has bidegree (r, 1-r) in page coordinates,
and its representatives lie in Tot(K) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import CochainComplex, cohomology_dims
from .grid import DoubleComplex, total
from .linalg import (
    CohomError,
    LabeledSpace,
    LawViolation,
    LinearMap,
    ONE,
    Subspace,
    ZERO,
    rank,
)


class ConvergenceFailure(CohomError):
    pass


@dataclass(frozen=True)
class PageEntry:
    dim: int
    representatives: Subspace  # subspace of Tot^{p+q}


@dataclass(frozen=True)
class SpectralPage:
    r: int
    entries: dict  # (p, q) -> PageEntry, all cells of [0,P] x [0,Q]
    differentials: dict  # (p, q) -> LinearMap in page coordinates

    def dim(self, p: int, q: int) -> int:
        e = self.entries.get((p, q))
        return e.dim if e else 0

    def dims(self) -> dict:
        return {pq: e.dim for pq, e in sorted(self.entries.items()) if e.dim}


@dataclass(frozen=True)
class ConvergenceCertificate:
    total_dims: tuple[int, ...]
    first_einf: dict    # k -> tuple of ((p, q), dim)
    second_einf: dict
    first_degeneration: int
    second_degeneration: int


def _subtract(y: dict, c: Fraction, x: dict) -> None:
    """y -= c * x on sparse vectors, dropping zeros."""
    for i, xi in x.items():
        t = y.get(i, ZERO) - c * xi
        if t:
            y[i] = t
        else:
            del y[i]


def _dense(v: dict, dim: int) -> tuple:
    out = [ZERO] * dim
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def _pairs(tot: CochainComplex, axis: int) -> tuple[list, list]:
    """Filtration level of every total basis index, and its pairing.

    The level of a basis index is position `axis` of its (p, q, label)
    label: 0 filters by columns, 1 by rows.  Returns (level, gens):
    level[n][i] is the level of index i of Tot^n, and gens[n][i] =
    (distance, representative, target) with distance None for
    essentials and target the paired index of Tot^{n+1} for sources.
    """
    n_max = tot.hi
    level = [[lab[axis] for lab in tot.space(n).labels] for n in range(n_max + 1)]
    gens: list[dict] = [{} for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        p_of, p_row = level[n], level[n + 1] if n < n_max else []
        cols: list[dict] = [{} for _ in p_of]
        for i, row in enumerate(tot.diff(n).nonzero_rows()):
            for j, x in row:
                cols[j][i] = x
        reduced: dict = {}  # low -> (R, V) of the column that owns it
        for j in sorted(range(len(p_of)), key=lambda i: (-p_of[i], i)):
            if j in gens[n]:
                continue  # a target: its column reduces to zero
            r, v = cols[j], {j: ONE}
            while r:
                low = max(r, key=lambda i: (-p_row[i], i))
                if low not in reduced:
                    break
                r_low, v_low = reduced[low]
                c = r[low] / r_low[low]
                _subtract(r, c, r_low)
                _subtract(v, c, v_low)
            rep = _dense(v, len(p_of))
            if r:
                reduced[low] = (r, v)
                dist = p_row[low] - p_of[j]
                gens[n][j] = (dist, rep, low)
                gens[n + 1][low] = (dist, _dense(r, len(p_row)), None)
            else:
                gens[n][j] = (None, rep, None)
    return level, gens


def _compute_pages(k: DoubleComplex, tot: CochainComplex, r_max: int,
                   axis: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of total(k) = tot filtered by label position axis.

    Page entry (a, b) sits at filtration level a in total degree a + b.
    """
    level, gens = _pairs(tot, axis)
    A, B = (k.P, k.Q) if axis == 0 else (k.Q, k.P)
    pages: list[SpectralPage] = []
    for r in range(1, r_max + 1):
        entries, alive = {}, {}
        for a in range(A + 1):
            for b in range(B + 1):
                n = a + b
                idx = [i for i, (dist, _, _) in sorted(gens[n].items())
                       if level[n][i] == a and (dist is None or dist >= r)]
                amb = tot.space(n)
                dom = LabeledSpace(tuple(("E", r, a, b, j) for j in range(len(idx))))
                reps = LinearMap.from_columns(dom, amb, [gens[n][i][1] for i in idx])
                entries[(a, b)] = PageEntry(len(idx), Subspace(amb, reps))
                alive[(a, b)] = idx
        diffs = {}
        for (a, b), idx in alive.items():
            cell = (a + r, b - r + 1)
            if cell not in alive:
                continue
            pos = {i: j for j, i in enumerate(alive[cell])}
            cols = []
            for i in idx:
                dist, _, target = gens[a + b][i]
                col = [ZERO] * len(pos)
                if target is not None and dist == r:
                    col[pos[target]] = ONE
                cols.append(tuple(col))
            diffs[(a, b)] = LinearMap.from_columns(
                entries[(a, b)].representatives.basis.domain,
                entries[cell].representatives.basis.domain, cols)
        page = SpectralPage(r, entries, diffs)
        _check_page(page, pages[-1] if pages else None)
        pages.append(page)
    return pages


def _check_page(page: SpectralPage, prev: Optional[SpectralPage]) -> None:
    # d_r . d_r = 0 wherever composable
    for (p, q), d in page.differentials.items():
        nxt = page.differentials.get((p + page.r, q - page.r + 1))
        if nxt is not None and not nxt.compose(d).is_zero():
            raise LawViolation("d_r squares to zero", f"page {page.r} at {(p, q)}")
    # dim E_{r+1} = dim ker d_r - dim im d_r, checked against the previous page
    if prev is not None:
        r = prev.r
        for (p, q), entry in page.entries.items():
            out = prev.differentials.get((p, q))
            ker = prev.dim(p, q) - (rank(out) if out else 0)
            inc = prev.differentials.get((p - r, q + r - 1))
            im = rank(inc) if inc else 0
            if entry.dim != ker - im:
                raise LawViolation("E_{r+1} = ker d_r / im d_r",
                                   f"page {page.r} entry {(p, q)}")


def first_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of the column filtration (E_1 = vertical cohomology)."""
    if not 1 <= r_max <= k.P + k.Q + 2:
        raise ValueError("r_max out of range")
    return _compute_pages(k, total(k), r_max, 0)


def second_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages of the row filtration (E_1 = horizontal cohomology).

    Page entry (p, q) is cell (q, p) of the input double complex; the
    representatives lie in total(k).
    """
    if not 1 <= r_max <= k.P + k.Q + 2:
        raise ValueError("r_max out of range")
    return _compute_pages(k, total(k), r_max, 1)


def _einf_sums(pages: list[SpectralPage], P: int, Q: int) -> dict:
    last = pages[-1]
    out = {}
    for k in range(P + Q + 1):
        out[k] = tuple(((p, k - p), last.dim(p, k - p))
                       for p in range(max(0, k - Q), min(P, k) + 1))
    return out


def _degeneration_page(pages: list[SpectralPage]) -> int:
    r0 = len(pages) + 1
    for page in reversed(pages):
        if all(d.is_zero() for d in page.differentials.values()):
            r0 = page.r
        else:
            break
    return r0


def _analyse(k: DoubleComplex, tot: CochainComplex, total_dims: tuple):
    """Both page sequences out to E_inf, and their certificate against total_dims.

    tot is total(k); total_dims come from cohomology_dims(tot), whose rank
    elimination is independent of the page reduction, so the certificate
    cross-checks two computations.
    """
    r_inf = max(k.P, k.Q) + 2
    first = _compute_pages(k, tot, r_inf, 0)
    second = _compute_pages(k, tot, r_inf, 1)
    first_sums = _einf_sums(first, k.P, k.Q)
    second_sums = _einf_sums(second, k.Q, k.P)
    for deg, h in enumerate(total_dims):
        s1 = sum(d for _, d in first_sums[deg])
        s2 = sum(d for _, d in second_sums[deg])
        if s1 != h:
            raise ConvergenceFailure(
                f"first filtration E_inf sum {s1} != dim H^{deg} = {h}")
        if s2 != h:
            raise ConvergenceFailure(
                f"second filtration E_inf sum {s2} != dim H^{deg} = {h}")
    cert = ConvergenceCertificate(
        total_dims=tuple(total_dims),
        first_einf=first_sums,
        second_einf=second_sums,
        first_degeneration=_degeneration_page(first),
        second_degeneration=_degeneration_page(second),
    )
    return first, second, cert


def certify_convergence(k: DoubleComplex) -> ConvergenceCertificate:
    """Check both filtrations' E_infinity against the total cohomology."""
    tot = total(k)
    return _analyse(k, tot, cohomology_dims(tot))[2]


def page_to_json(page: SpectralPage) -> dict:
    dims = [{"p": p, "q": q, "dim": e.dim}
            for (p, q), e in sorted(page.entries.items())]
    ranks = [{"p": p, "q": q, "rank": rank(d)}
             for (p, q), d in sorted(page.differentials.items())]
    return {"r": page.r, "dims": dims, "d_r_ranks": ranks}
