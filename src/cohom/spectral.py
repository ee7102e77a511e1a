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
exactly r: it sends each source to its target.  E_{r+1} rebuilds only
the cells that d_r touches.  Page dims are lengths of index lists, and
the rank of d_r is its number of distinct targets.  Representatives are
V_j for essentials and sources and R_j for the target of source j, kept
as ints with the one scale V_j[j] that `SpectralPage.representatives`
divides them by.

The convergence certificate builds no page: `_check_pairing` checks the
page laws of every r in one pass over the pairing, E_inf^{p,n-p} counts
the essentials at level p in Tot^n, and every d_r past the longest pair
distance is zero.  Pages are built only for output; each checks its laws.

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


def _check_pairing(level: list, gens: list) -> tuple[list, int]:
    """Check a pairing from _pairs for the page laws of every r at once: the target
    of a source lies at its level plus their distance, is no source, is no other
    source's target and records the same distance, and every target has a source.
    The same pass returns what the certificate reads: (count, longest), with
    count[n][a] essentials at level a in Tot^n and the longest pair distance."""
    count = [[0] * (n + 1) for n in range(len(gens))]  # level a <= n in Tot^n
    claimed, longest = set(), 0  # claimed: the targets in Tot^n of sources in Tot^{n-1}
    for n, (lv, g, row) in enumerate(zip(level, gens, count)):
        nxt, targets, sources = (gens[n + 1] if n + 1 < len(gens) else ()), 0, set()
        for i, (dist, _, t) in enumerate(g):
            if dist is None:
                row[lv[i]] += 1
            elif t is None:
                targets += 1
            else:
                if not (0 <= t < len(nxt) and level[n + 1][t] == lv[i] + dist):
                    raise LawViolation("d_r has bidegree (r, 1-r)", f"source {i} of Tot^{n}")
                if nxt[t][2] is not None:
                    raise LawViolation("d_r squares to zero", f"source {i} of Tot^{n}")
                if nxt[t][0] != dist or t in sources:
                    raise LawViolation("E_{r+1} = ker d_r / im d_r", f"source {i} of Tot^{n}")
                sources.add(t)
                longest = max(longest, dist)
        if targets != len(claimed):
            raise LawViolation("E_{r+1} = ker d_r / im d_r", f"a target in Tot^{n} has no source")
        claimed = sources
    return count, longest


def _compute_pages(k: DoubleComplex, pairing: tuple, r_max: int, axis: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of a total of k from its checked pairing by label position axis.

    Page entry (a, b) sits at filtration level a in total degree a + b.
    E_{r+1} rebuilds the cells in dying[r] and shares the others with E_r.
    """
    level, gens = pairing
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
    """{(p, q): d_pairs(p, q)} of page r from its sources {(p, q): [(source, target)]}
    at distance r; each target must be alive on E_r^{p+r, q-r+1}."""
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
            rank = len({t for _, t in pairs})
            want[(p, q)] -= rank
            want[(p + prev.r, q - prev.r + 1)] -= rank
        for (p, q), idx in page.span.items():
            if len(idx) != want[(p, q)]:
                raise LawViolation("E_{r+1} = ker d_r / im d_r", f"page {r} entry {(p, q)}")


def _pages(k: DoubleComplex, r_max: int, axis: int) -> list[SpectralPage]:
    if not 1 <= r_max <= k.P + k.Q + 2:
        raise ValueError("r_max out of range")
    pairing = _pairs(total(k), axis)
    _check_pairing(*pairing)
    return _compute_pages(k, pairing, r_max, axis)


def first_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages E_1..E_r_max of the column filtration (E_1 = vertical cohomology)."""
    return _pages(k, r_max, 0)


def second_pages(k: DoubleComplex, r_max: int) -> list[SpectralPage]:
    """Pages of the row filtration (E_1 = horizontal cohomology): page entry (p, q)
    is cell (q, p) of the input double complex, and representatives lie in total(k)."""
    return _pages(k, r_max, 1)


def _certify(k: DoubleComplex, total_dims: tuple, readings: list) -> ConvergenceCertificate:
    """Both filtrations' E_inf against total_dims, from the (count, longest) that
    _check_pairing read off each pairing: E_inf^{a,n-a} is count[n][a], and
    the degeneration page is one past the longest pair distance."""
    einf = [{n: tuple([((a, n - a), count[n][a]) for a in range(max(0, n - B), min(A, n) + 1)])
             for n in range(A + B + 1)}
            for (count, _), (A, B) in zip(readings, ((k.P, k.Q), (k.Q, k.P)))]
    for deg, h in enumerate(total_dims):
        for name, sums in zip(("first", "second"), einf):
            s = sum(d for _, d in sums[deg])
            if s != h:
                raise ConvergenceFailure(f"{name} filtration E_inf sum {s} != dim H^{deg} = {h}")
    return ConvergenceCertificate(tuple(total_dims), *einf, *(r + 1 for _, r in readings))


def _analyse(k: DoubleComplex, tot: CochainComplex, total_dims: tuple):
    """Both page sequences out to E_inf and their certificate, from one pairing of
    tot = total(k) per filtration; total_dims come from cohomology_dims(tot), whose
    row echelon is independent of the pairing, so the certificate cross-checks the two."""
    pairings = [_pairs(tot, axis) for axis in (0, 1)]
    cert = _certify(k, total_dims, [_check_pairing(*pairing) for pairing in pairings])
    r_inf = max(k.P, k.Q) + 2
    first, second = (_compute_pages(k, pair, r_inf, axis) for axis, pair in enumerate(pairings))
    for pages, einf in ((first, cert.first_einf), (second, cert.second_einf)):
        if pages[-1].dims() != {pq: d for cells in einf.values() for pq, d in cells if d}:
            raise LawViolation("the last page is E_inf", f"page {r_inf}")
    return first, second, cert


def certify_convergence(k: DoubleComplex) -> ConvergenceCertificate:
    """Check both filtrations' E_infinity, read off their checked pairings,
    against the total cohomology; no page is built."""
    tot = total(k)
    return _certify(k, cohomology_dims(tot), [_check_pairing(*_pairs(tot, a)) for a in (0, 1)])


def page_to_json(page: SpectralPage) -> dict:
    dims = [{"p": p, "q": q, "dim": len(idx)} for (p, q), idx in sorted(page.span.items())]
    ranks = [{"p": p, "q": q, "rank": len({t for _, t in page.d_pairs(p, q)})}
             for p, q in sorted(page.span) if (p + page.r, q - page.r + 1) in page.span]
    return {"r": page.r, "dims": dims, "d_r_ranks": ranks}
