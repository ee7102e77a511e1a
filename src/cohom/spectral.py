"""Spectral sequences of a bounded first-quadrant double complex.

All pages come from one filtered column reduction of the total complex
(the persistence view of a spectral sequence).  For each degree n the
differential D : Tot^n -> Tot^{n+1} is reduced once by
`linalg.reduce_columns`, with columns and rows ordered by (-p, index) so
that a column only ever receives columns from its own filtration step
F_p = sum_{p' >= p} K^{p', n-p'}.  The result R = D V has unique lowest
nonzero rows ("lows"), and every basis index of Tot^n is exactly one of

    an essential   R_j = 0 and j is not a low,
    a source j     paired with its target low(R_j) at distance p_low - p_j,
    a target       the low of some source in degree n - 1.

A page is a filter on this pairing.  E_r^{p,q} is spanned by the
essentials at p plus the sources and targets at p whose pair distance
is >= r (`SpectralPage.span`), and d_r is the matching at distance
exactly r: it sends each source to its target.  One sweep over the
pairing reads off E_1 and files every source, and every cell holding a
pair, by distance.  E_{r+1} then rebuilds only the cells that d_r
touches and shares every other cell's index list with E_r, and each
page builds its d_r once, from the sources at distance r
(`SpectralPage.d`, read by `d_pairs`).  Page dims are therefore lengths
of index lists and the rank of d_r is its number of distinct targets.
Representatives are V_j for essentials and sources and R_j for the
target of source j, kept as ints with the one scale V_j[j] that
`SpectralPage.representatives` divides them by.

The row filtration is read from the same total complex, with q in place
of p as the filtration degree: x -> (-1)^{pq} x carries Tot(K) filtered
by q onto Tot(K^T) filtered by its first index, so both give the same
pages.  Entry (p, q) of a second page refers to cell (q, p) of the input
complex, so that d_r always has bidegree (r, 1-r) in page coordinates,
and its representatives lie in Tot(K) itself.
"""

from __future__ import annotations

from typing import Optional

from .complexes import CochainComplex, cohomology_dims
from .grid import DoubleComplex, total
from .linalg import CohomError, LawViolation, Record, ZERO, quotient, reduce_columns


class ConvergenceFailure(CohomError):
    pass


class SpectralPage(Record):
    r: int
    span: dict  # (p, q) -> Tot^{p+q} indices alive on E_r, all cells of [0,P] x [0,Q]
    gens: list  # the _pairs pairing, shared by every page of one filtration
    d: dict     # (p, q) -> d_pairs(p, q), for the cells where d_r is nonzero

    def __init__(self, r: int, span: dict, gens: list, d: dict):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "d", d)

    def dim(self, p: int, q: int) -> int:
        return len(self.span.get((p, q), ()))

    def dims(self) -> dict:
        return {pq: len(idx) for pq, idx in sorted(self.span.items()) if idx}

    def d_pairs(self, p: int, q: int) -> list[tuple[int, int]]:
        """(source, target) span positions of d_r : E_r^{p,q} -> E_r^{p+r,q-r+1}."""
        return self.d.get((p, q), [])

    def representatives(self, p: int, q: int) -> list[tuple]:
        """Dense vectors of Tot^{p+q}: V_j for essentials and sources, R_j for targets."""
        gens = self.gens[p + q]
        return [_dense(*gens[i][1], len(gens)) for i in self.span[(p, q)]]


def _rank(pairs: list) -> int:
    return len({t for _, t in pairs})


class ConvergenceCertificate(Record):
    total_dims: tuple[int, ...]
    first_einf: dict    # k -> tuple of ((p, q), dim)
    second_einf: dict
    first_degeneration: int
    second_degeneration: int


def _dense(v: dict, s: int, dim: int) -> tuple:
    out = [ZERO] * dim
    for i, x in v.items():
        out[i] = quotient(x, s)
    return tuple(out)


def _pairs(tot: CochainComplex, axis: int) -> tuple[list, list]:
    """Filtration level of every total basis index, and its pairing.

    The level of a basis index is position `axis` of its (p, q, label)
    label: 0 filters by columns, 1 by rows.  Returns (level, gens):
    level[n][i] is the level of index i of Tot^n, and gens[n][i] =
    (distance, (column, scale), target) with distance None for
    essentials, the integer column V_j (R_j for a target) as a dict with
    the scale V_j[j] that divides it, and target the paired index of
    Tot^{n+1} for sources.  (-level, index) orders the indices.
    """
    n_max = tot.hi
    level = [[lab[axis] for lab in tot.space(n).labels] for n in range(n_max + 1)]
    ranked = [sorted(range(len(lv)), key=[-a for a in lv].__getitem__) for lv in level]
    pos = [sorted(range(len(idx)), key=idx.__getitem__) for idx in ranked]  # inverses
    gens: list[list] = [[None] * len(lv) for lv in level]
    for n in range(n_max + 1):
        p_of = level[n]
        cols = tot.diff(n).transpose().rows if n < n_max else ((),) * len(p_of)
        # a target's column reduces to zero, so only the others are reduced
        order = [j for j in ranked[n] if gens[n][j] is None]
        key = pos[n + 1].__getitem__ if n < n_max else None
        for j, r, v, low in reduce_columns(cols, order, key):
            if low is None:
                gens[n][j] = (None, (v, v[j]), None)
            else:
                dist = level[n + 1][low] - p_of[j]
                gens[n][j] = (dist, (v, v[j]), low)
                gens[n + 1][low] = (dist, (r, v[j]), None)
    return level, gens


def _compute_pages(k: DoubleComplex, tot: CochainComplex, r_max: int,
                   axis: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of total(k) = tot filtered by label position axis.

    Page entry (a, b) sits at filtration level a in total degree a + b.
    E_{r+1} rebuilds the cells in dying[r] and shares the others with E_r.
    """
    if not 1 <= r_max <= k.P + k.Q + 2:
        raise ValueError("r_max out of range")
    level, gens = _pairs(tot, axis)
    A, B = (k.P, k.Q) if axis == 0 else (k.Q, k.P)
    cells: dict = {(a, b): [] for a in range(A + 1) for b in range(B + 1)}
    dying: dict = {}    # r -> cells with an index at distance r, rebuilt on E_{r+1}
    sources: dict = {}  # r -> {cell: [(source, target)]} at distance r
    for n, g in enumerate(gens):
        for i, (dist, _, target) in enumerate(g):
            if dist == 0:
                continue  # a pair at distance 0 lies inside one cell and is gone from E_1
            a = level[n][i]
            cells[(a, n - a)].append(i)
            if dist is not None:
                dying.setdefault(dist, set()).add((a, n - a))
                if target is not None:
                    sources.setdefault(dist, {}).setdefault((a, n - a), []).append((i, target))
    span = {ab: tuple(idx) for ab, idx in cells.items()}
    pages: list[SpectralPage] = []
    for r in range(1, r_max + 1):
        if pages:
            span = dict(span)
            for a, b in dying.get(r - 1, ()):
                g = gens[a + b]
                span[(a, b)] = tuple(i for i in span[(a, b)] if g[i][0] != r - 1)
        page = SpectralPage(r, span, gens, _d_r(r, span, sources.get(r, {})))
        _check_page(page, pages[-1] if pages else None)
        pages.append(page)
    return pages


def _d_r(r: int, span: dict, sources: dict) -> dict:
    """{(p, q): d_pairs(p, q)} of page r from its sources at distance r,
    {(p, q): [(source, target)]}; each target must be alive on
    E_r^{p+r, q-r+1}."""
    d = {}
    for (p, q), pairs in sources.items():
        pos = {i: j for j, i in enumerate(span[(p, q)])}
        dst = {i: j for j, i in enumerate(span.get((p + r, q - r + 1), ()))}
        if any(t not in dst for _, t in pairs):
            raise LawViolation("d_r has bidegree (r, 1-r)", f"page {r} at {(p, q)}")
        d[(p, q)] = [(pos[i], dst[t]) for i, t in pairs]
    return d


def _check_page(page: SpectralPage, prev: Optional[SpectralPage]) -> None:
    r = page.r
    # d_r . d_r = 0: no target of d_r is itself a source of d_r
    for (p, q), pairs in page.d.items():
        if {t for _, t in pairs} & {s for s, _ in page.d_pairs(p + r, q - r + 1)}:
            raise LawViolation("d_r squares to zero", f"page {r} at {(p, q)}")
    # dim E_{r+1} = dim ker d_r - dim im d_r, checked against the previous page
    if prev is not None:
        want = {pq: len(idx) for pq, idx in prev.span.items()}
        for (p, q), pairs in prev.d.items():
            want[(p, q)] -= _rank(pairs)
            want[(p + prev.r, q - prev.r + 1)] -= _rank(pairs)
        for (p, q), idx in page.span.items():
            if len(idx) != want[(p, q)]:
                raise LawViolation("E_{r+1} = ker d_r / im d_r",
                                   f"page {r} entry {(p, q)}")


def first_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of the column filtration (E_1 = vertical cohomology)."""
    return _compute_pages(k, total(k), r_max, 0)


def second_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages of the row filtration (E_1 = horizontal cohomology).

    Page entry (p, q) is cell (q, p) of the input double complex; the
    representatives lie in total(k).
    """
    return _compute_pages(k, total(k), r_max, 1)


def _einf_sums(pages: list[SpectralPage], P: int, Q: int) -> dict:
    last = pages[-1]
    return {k: tuple(((p, k - p), last.dim(p, k - p)) for p in range(max(0, k - Q), min(P, k) + 1))
            for k in range(P + Q + 1)}


def _degeneration_page(pages: list[SpectralPage]) -> int:
    """The first r from which every d_r is zero, given the pages E_1, E_2, ..."""
    return next((page.r + 1 for page in reversed(pages) if page.d), 1)


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
        for name, sums in (("first", first_sums), ("second", second_sums)):
            s = sum(d for _, d in sums[deg])
            if s != h:
                raise ConvergenceFailure(f"{name} filtration E_inf sum {s} != dim H^{deg} = {h}")
    cert = ConvergenceCertificate(tuple(total_dims), first_sums, second_sums,
                                  _degeneration_page(first), _degeneration_page(second))
    return first, second, cert


def certify_convergence(k: DoubleComplex) -> ConvergenceCertificate:
    """Check both filtrations' E_infinity against the total cohomology."""
    tot = total(k)
    return _analyse(k, tot, cohomology_dims(tot))[2]


def page_to_json(page: SpectralPage) -> dict:
    dims = [{"p": p, "q": q, "dim": len(idx)} for (p, q), idx in sorted(page.span.items())]
    ranks = [{"p": p, "q": q, "rank": _rank(page.d_pairs(p, q))}
             for p, q in sorted(page.span) if (p + page.r, q - page.r + 1) in page.span]
    return {"r": page.r, "dims": dims, "d_r_ranks": ranks}
