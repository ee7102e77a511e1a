r"""Differential forms with Laurent-polynomial coefficients.

A form is a rational combination of monomial terms z^a dz_I on n
variables; the first k variables of a TorusSpec may be inverted (poles
allowed), the rest are polynomial.  One function holds each rule of the
term algebra: _sign, _bump, _sum_terms and the input gate check_closed.
The multidegree a + sum_{i in I} e_i is preserved by d, so the truncated
de Rham complex splits into finite pieces indexed by multidegree; within
one piece the differential is the Koszul map sum m_i dz_i /\ . , exact
whenever m != 0 and zero at m = 0, where the basis consists of the
logarithmic generators

    w_I = dz_{i1}/z_{i1} /\ ... /\ dz_{iq}/z_{iq},  I subset {1..k}.

_koszul_piece builds each piece on one cached Koszul skeleton per
admissible-axis set, and `derham_cohomology` ranks only the first piece
of each class of equal ranks: pieces with the same admissible axes and
the same support S of m are diagonal conjugates, D_m = T D_{1_S} T^-1,
T e_J = (prod_{a in J & S} m_a) e_J (Eisenbud, Commutative Algebra, section 17).
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import (ONE, CohomError, LawViolation, Record, WindowExhausted, _echelon,
                    dims_from_ranks, rat_to_str)

if TYPE_CHECKING:
    from .complexes import CochainComplex


class VariableCountMismatch(CohomError):
    pass


class NotClosed(CohomError):
    pass


class PoleOnNonInvertedAxis(CohomError):
    pass


def _sign(seq) -> int:
    """Sign of the permutation that sorts seq, whose entries are distinct:
    dz_seq = _sign(seq) dz_sorted(seq)."""
    return -1 if sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:]) % 2 else 1


def _bump(exps: tuple, axis: int, by: int) -> tuple:
    """exps with the exponent of the 1-based axis raised by `by`."""
    return exps[:axis - 1] + (exps[axis - 1] + by,) + exps[axis:]


class AlgebraicForm(Record):
    """Homogeneous q-form; terms maps (exponents, dz index set) to coefficients."""

    n: int
    degree: int
    terms: tuple  # sorted tuple of (exps tuple, dI tuple, int or Fraction), no zeros

    def __post_init__(self):
        for exps, dI, c in self.terms:
            if len(exps) != self.n or len(dI) != self.degree:
                raise ValueError("malformed term")
            if any(dI[i] >= dI[i + 1] for i in range(len(dI) - 1)):
                raise ValueError("dz indices must be strictly increasing")
            if not 0 < min(dI, default=1) or max(dI, default=1) > self.n:
                raise ValueError("dz index out of range")
            if c == 0:
                raise ValueError("zero coefficient stored")

    @staticmethod
    def build(n: int, degree: int, term_map: dict) -> "AlgebraicForm":
        items = tuple(sorted((exps, dI, c) for (exps, dI), c in term_map.items() if c != 0))
        return AlgebraicForm(n, degree, items)

    @staticmethod
    def zero(n: int, degree: int) -> "AlgebraicForm":
        return AlgebraicForm(n, degree, ())

    @staticmethod
    def monomial(n: int, coeff, exps, dI=()) -> "AlgebraicForm":
        c = Fraction(coeff)
        if c == 0:
            return AlgebraicForm.zero(n, len(dI))
        return AlgebraicForm(n, len(dI), ((tuple(exps), tuple(dI), c),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraicForm") -> "AlgebraicForm":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.n != other.n:
            raise VariableCountMismatch("cannot add forms on different variable counts")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return _sum_terms(self.n, self.degree, self.terms + other.terms)

    def __sub__(self, other: "AlgebraicForm") -> "AlgebraicForm":
        return self + other.scale(-1)

    def scale(self, c) -> "AlgebraicForm":
        c = Fraction(c)
        if c == 0:
            return AlgebraicForm.zero(self.n, self.degree)
        return AlgebraicForm(self.n, self.degree,
                             tuple((e, d, x * c) for e, d, x in self.terms))


def _sum_terms(n: int, degree: int, terms) -> AlgebraicForm:
    """The form sum c z^exps dz_dI over (exps, dI, c) terms; equal (exps, dI) add up."""
    acc: dict = {}
    for exps, dI, c in terms:
        key = exps, dI
        acc[key] = acc[key] + c if key in acc else c
    return AlgebraicForm.build(n, degree, acc)


def term_multidegree(exps: tuple, dI: tuple) -> tuple:
    return tuple(e + (1 if i + 1 in dI else 0) for i, e in enumerate(exps))


def exterior_derivative(w: AlgebraicForm) -> AlgebraicForm:
    """d(z^a dz_I) = sum_i a_i z^{a - e_i} dz_i /\\ dz_I, normalized."""
    return _sum_terms(w.n, w.degree + 1,
                      ((_bump(exps, i, -1), tuple(sorted(dI + (i,))), c * e * _sign((i,) + dI))
                       for exps, dI, c in w.terms for i, e in enumerate(exps, 1)
                       if e and i not in dI))


def wedge(a: AlgebraicForm, b: AlgebraicForm) -> AlgebraicForm:
    if a.n != b.n:
        raise VariableCountMismatch("wedge of forms on different variable counts")
    return _sum_terms(a.n, a.degree + b.degree,
                      ((tuple(x + y for x, y in zip(e1, e2)), tuple(sorted(I + J)),
                        c1 * c2 * _sign(I + J))
                       for e1, I, c1 in a.terms for e2, J, c2 in b.terms
                       if not set(I).intersection(J)))


def log_form(n: int, I) -> AlgebraicForm:
    """w_I = product of dz_i / z_i over i in I."""
    I = tuple(sorted(I))
    exps = tuple(-1 if (i + 1) in I else 0 for i in range(n))
    return AlgebraicForm.monomial(n, 1, exps, I)


class TorusSpec(Record):
    """Variables 1..k inverted (divisor z_1...z_k = 0), exponent window W."""

    n: int
    k: int
    window: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        if self.window < 1:
            raise ValueError("window must be at least 1")

    def inverted(self, i: int) -> bool:
        """1-based axis index."""
        return 1 <= i <= self.k


# ---------------------------------------------------------------------------
# Multidegree decomposition


def check_poles(w: AlgebraicForm, spec: TorusSpec) -> None:
    if w.n != spec.n:
        raise VariableCountMismatch("form and spec disagree on variable count")
    for exps, dI, _ in w.terms:
        for i in range(spec.k + 1, spec.n + 1):
            if exps[i - 1] < 0:
                raise PoleOnNonInvertedAxis(
                    f"negative exponent on non-inverted variable z{i}")


def check_closed(w: AlgebraicForm, spec: TorusSpec) -> None:
    """The input gate of every reduction: check_poles, then d w = 0."""
    check_poles(w, spec)
    if not exterior_derivative(w).is_zero():
        raise NotClosed("the form is not closed")


def _admissible_axes(spec: TorusSpec, m: tuple):
    """Axes that may carry dz_i at m (inverted, or m_i >= 1); None if a polynomial m_i < 0."""
    return None if any(mi < 0 for mi in m[spec.k:]) else \
        tuple(i for i in range(1, spec.n + 1) if spec.inverted(i) or m[i - 1] >= 1)


@functools.cache
def _koszul_skeleton(n: int, pool) -> tuple:
    """(bases, rows): bases[q] lists the q-subsets of pool in lex order (none if
    pool is None); row J of d_q holds one (column of J - {i}, i - 1, sign) triple
    per axis i in J, the sign (-1)^(position of i in J)."""
    bases = tuple(tuple(itertools.combinations(pool, q)) if pool is not None else ()
                  for q in range(n + 1))
    index = {I: j for basis in bases for j, I in enumerate(basis)}
    rows = tuple(tuple(tuple((index[J[:p] + J[p + 1:]], a - 1, -1 if p % 2 else 1)
                             for p, a in enumerate(J)) for J in basis) for basis in bases[1:])
    return bases, rows


def _koszul_piece(spec: TorusSpec, m: tuple) -> tuple:
    """(skeleton, rows) of the multidegree-m piece: the cached skeleton of the
    admissible axes at m, and rows[q][J], the nonzero (column, m_i * sign) entries of d_q."""
    skeleton = _koszul_skeleton(spec.n, _admissible_axes(spec, m))
    return skeleton, [[[(j, m[a] * s) for j, a, s in row if m[a]] for row in d]
                      for d in skeleton[1]]


def _check_koszul_squares(skeletons) -> None:
    """d_{q+1} d_q = 0 at the sign level: for every J and axes a < b in J, the
    paths J -> J - {a} -> J - {a, b} and J -> J - {b} -> J - {a, b} have opposite signs."""
    for _, rows in skeletons:
        for d, d_next in zip(rows, rows[1:]):
            for row in d_next:
                paths: dict = {}
                for j, a, s in row:
                    for i, b, t in d[j]:
                        key = (i, min(a, b), max(a, b))
                        paths[key] = paths.get(key, 0) + s * t
                if any(paths.values()):
                    raise LawViolation("the Koszul differential squares to zero")


def multidegree_complex(spec: TorusSpec, m: tuple) -> CochainComplex:
    """The finite complex of forms of one fixed multidegree.

    Degree-q basis: valid index sets I (lex order); differential is the
    Koszul map determined by m.
    """
    from .complexes import CochainComplex
    from .linalg import LabeledSpace, LinearMap

    (bases, _), rows = _koszul_piece(spec, m)
    spaces = tuple(LabeledSpace(tuple((m, I) for I in basis)) for basis in bases)
    diffs = tuple(LinearMap.sparse(spaces[q], spaces[q + 1], d) for q, d in enumerate(rows))
    return CochainComplex(0, spec.n, spaces, diffs)


# Most multidegree components one window may enumerate: n = 4 with all
# four variables inverted fits up to W = 4 (4096 components).
MAX_MULTIDEGREES = 10_000

# Most variables a torus model may have: derham_cohomology ranks 2^n Koszul pieces of
# up to 2^n basis forms each, whatever the window.  `cohom derham --n N --invert N
# --window 1` takes 0.36 / 1.2 / 6.4 s at N = 8 / 9 / 10 with it lifted (Python 3.11, 2 vCPUs).
MAX_TORUS_N = 8


def multidegree_count(spec: TorusSpec) -> int:
    """(2W)^k (W+1)^(n-k), the number of multidegrees in the window."""
    W = spec.window
    return (2 * W) ** spec.k * (W + 1) ** (spec.n - spec.k)


def check_window_budget(spec: TorusSpec) -> None:
    """Refuse a window with more than MAX_MULTIDEGREES components, or a model
    with more than MAX_TORUS_N variables."""
    count = multidegree_count(spec)
    if count > MAX_MULTIDEGREES:
        raise ValueError(f"the window has {count} multidegree components, "
                         f"over the limit of {MAX_MULTIDEGREES}")
    if spec.n > MAX_TORUS_N:
        raise ValueError(f"the model has {spec.n} variables, over the limit of {MAX_TORUS_N}")


def multidegree_window(spec: TorusSpec) -> list[tuple]:
    """Multidegrees whose component complex is untruncated by the window.

    Inverted axes range over [-W+1, W], polynomial axes over [0, W]; at
    these multidegrees both index-set choices per admissible axis carry
    in-window exponents, so each component equals its untruncated
    counterpart (boundary components are omitted rather than cut).
    """
    check_window_budget(spec)
    W = spec.window
    return list(itertools.product(*(range(-W + 1 if spec.inverted(i) else 0, W + 1)
                                    for i in range(1, spec.n + 1))))


def multidegree_split(spec: TorusSpec) -> dict:
    """Component complexes of the truncated de Rham complex, keyed by multidegree."""
    return {m: multidegree_complex(spec, m) for m in multidegree_window(spec)}


def split_by_multidegree(w: AlgebraicForm) -> dict:
    parts: dict = {}
    for exps, dI, c in w.terms:
        m = term_multidegree(exps, dI)
        parts.setdefault(m, {})[(exps, dI)] = c
    return {m: AlgebraicForm.build(w.n, w.degree, t) for m, t in sorted(parts.items())}


class DerhamReport(Record):
    k: int
    dims: tuple           # per form degree q = 0..n
    generators: tuple     # per q: tuple of index sets I with |I| = q


def derham_cohomology(spec: TorusSpec) -> DerhamReport:
    """Cohomology of the truncated de Rham complex of the torus model.

    Every nonzero multidegree component must be exact (verified by ranking
    its integer Koszul rows); the m = 0 component carries the classes w_I.
    The window's components fall into 2^n classes (admissible axes, support
    S of m), and every m of a class has the ranks of its first: on the basis
    e_J of the q-subsets J of the admissible axes,

        D_m = T D_{1_S} T^-1,   T e_J = (prod_{a in J & S} m_a) e_J,

    since the entry at (J, J - {a}) is m_a times a sign and m_a = 0 off S.
    T is invertible, so D_m and D_{1_S} have equal ranks in every degree.
    Only the first m of each class in window order is ranked: per axis, the
    first m_i != 0 and m_i = 0 are -W+1 and 0 on an inverted axis when W > 1,
    else 0 and 1.  Each skeleton the ranks used is then checked to square to zero.
    """
    check_window_budget(spec)
    W = spec.window
    dims = [0] * (spec.n + 1)
    skeletons = {}  # the skeletons the loop ranked, once each: they come from a cache
    for m in itertools.product(*((-W + 1, 0) if spec.inverted(i) and W > 1 else (0, 1)
                                 for i in range(1, spec.n + 1))):
        skeleton, rows = _koszul_piece(spec, m)
        skeletons[id(skeleton)] = skeleton
        ranks = [len(_echelon(d)) for d in rows]
        part = dims_from_ranks(map(len, skeleton[0]), ranks)
        if any(m):
            if any(part):
                raise WindowExhausted(
                    f"nonzero cohomology at multidegree {m}; enlarge the window")
        elif any(ranks):
            raise LawViolation("the multidegree-zero differential vanishes")
        else:
            dims = part
    _check_koszul_squares(skeletons.values())
    generators = tuple(tuple(itertools.combinations(range(1, spec.k + 1), q))
                       for q in range(spec.n + 1))
    expected = tuple(len(g) for g in generators)
    if tuple(dims) != expected:
        raise WindowExhausted(
            f"multidegree-zero dims {tuple(dims)} differ from log-class count {expected}")
    return DerhamReport(spec.k, tuple(dims), generators)


def truncated_de_rham_complex(spec: TorusSpec) -> CochainComplex:
    """Direct sum of all window multidegree components as one complex.

    Degree-q labels are (m, I) pairs, so vectors translate back to forms.
    """
    from .complexes import CochainComplex
    from .linalg import LabeledSpace, LinearMap

    components = [multidegree_complex(spec, m) for m in multidegree_window(spec)]
    spaces = tuple(LabeledSpace(tuple(lab for cx in components for lab in cx.space(q).labels))
                   for q in range(spec.n + 1))
    offsets = [list(itertools.accumulate([cx.space(q).dim for cx in components], initial=0))
               for q in range(spec.n + 1)]
    diffs = tuple(LinearMap.from_blocks(spaces[q], spaces[q + 1], offsets[q], offsets[q + 1],
                                        [(i, i, 1, cx.diff(q)) for i, cx in enumerate(components)])
                  for q in range(spec.n))
    return CochainComplex(0, spec.n, spaces, diffs)


# ---------------------------------------------------------------------------
# Pole reduction along one axis (the induction step of the log-class result)


def _split_dz_axis(w: AlgebraicForm, axis: int):
    """Write w = dz_axis /\\ alpha + beta with alpha, beta free of dz_axis."""
    alpha: dict = {}
    beta: dict = {}
    for exps, dI, c in w.terms:
        if axis in dI:
            rest = tuple(i for i in dI if i != axis)
            alpha[(exps, rest)] = c * _sign((axis,) + rest)
        else:
            beta[(exps, dI)] = c
    return (AlgebraicForm.build(w.n, max(w.degree - 1, 0), alpha),
            AlgebraicForm.build(w.n, w.degree, beta))


def _pole_parts(w: AlgebraicForm, axis: int):
    """(holomorphic part, {j: coefficient of z_axis^-j}) of w, in one pass over
    its terms; each coefficient has its axis exponent zeroed."""
    holo: dict = {}
    poles: dict = {}
    for exps, dI, c in w.terms:
        e = exps[axis - 1]
        if e >= 0:
            holo[(exps, dI)] = c
        else:
            poles.setdefault(-e, {})[(_bump(exps, axis, -e), dI)] = c
    return (AlgebraicForm.build(w.n, w.degree, holo),
            {j: AlgebraicForm.build(w.n, w.degree, t) for j, t in poles.items()})


def _shift_axis(w: AlgebraicForm, axis: int, by: int) -> AlgebraicForm:
    return AlgebraicForm.build(w.n, w.degree,
                               {(_bump(exps, axis, by), dI): c for exps, dI, c in w.terms})


def pole_reduce(w: AlgebraicForm, spec: TorusSpec, axis: int):
    """Split a closed form as w = w0 + (dz_axis / z_axis) /\\ a1 + d(theta).

    w0 and a1 are closed with no pole along the axis; a1 involves neither
    z_axis nor dz_axis; theta collects the higher-order polar part.  The
    exact identity and the closedness bookkeeping are asserted.
    """
    if not spec.inverted(axis):
        raise PoleOnNonInvertedAxis(f"axis {axis} is not inverted")
    check_closed(w, spec)

    alpha, beta = _split_dz_axis(w, axis)
    alpha0, alphas = _pole_parts(alpha, axis)
    beta0, betas = _pole_parts(beta, axis)
    r = max(alphas.keys() | betas.keys(), default=0)

    dz = AlgebraicForm.monomial(w.n, 1, (0,) * w.n, (axis,))
    w0 = wedge(dz, alpha0) + beta0
    a1 = alphas.get(1, AlgebraicForm.zero(w.n, max(w.degree - 1, 0)))

    theta = AlgebraicForm.zero(w.n, max(w.degree - 1, 0))
    for j, aj in alphas.items():
        if j > 1:
            theta = theta - _shift_axis(aj, axis, -(j - 1)).scale(Fraction(1, j - 1))

    # the closedness relations forced by d w = 0
    if not exterior_derivative(a1).is_zero():
        raise LawViolation("pole reduction: a1 is closed")
    if not exterior_derivative(w0).is_zero():
        raise LawViolation("pole reduction: w0 is closed")
    for j in range(2, r + 2):
        aj = alphas.get(j, AlgebraicForm.zero(w.n, max(w.degree - 1, 0)))
        bprev = betas.get(j - 1, AlgebraicForm.zero(w.n, w.degree))
        if not (exterior_derivative(aj) + bprev.scale(j - 1)).is_zero():
            raise LawViolation("pole reduction: polar relation", f"order {j}")

    log_axis = log_form(w.n, (axis,))
    residue = w - w0 - wedge(log_axis, a1) - exterior_derivative(theta)
    if not residue.is_zero():
        raise LawViolation("pole reduction: w = w0 + dz/z ^ a1 + d(theta)")
    return w0, a1, theta


# ---------------------------------------------------------------------------
# Logarithmic representatives via the multidegree homotopy


def log_representative(w: AlgebraicForm, spec: TorusSpec):
    """Nonzero coefficients {I: c_I} with w - sum c_I w_I = d(xi), plus the witness xi.

    Works one multidegree at a time: the m = 0 component is literally a
    combination of the w_I; every m != 0 component is killed by the
    Koszul homotopy along the first axis with m_axis != 0.
    """
    check_closed(w, spec)
    coeffs: dict = {}
    xi = AlgebraicForm.zero(w.n, max(w.degree - 1, 0))
    for m, part in split_by_multidegree(w).items():
        if not any(m):
            for exps, dI, c in part.terms:
                coeffs[dI] = c
            continue
        axis = next(i for i in range(1, spec.n + 1) if m[i - 1] != 0)
        # the Koszul homotopy: contract dz_axis, raise the axis exponent by one
        alpha, _ = _split_dz_axis(part, axis)
        xi_m = _shift_axis(alpha, axis, 1).scale(Fraction(1, m[axis - 1]))
        if exterior_derivative(xi_m) != part:
            raise WindowExhausted(
                f"cannot certify exactness of the multidegree {m} component")
        xi = xi + xi_m
    residue = w - exterior_derivative(xi)
    for I, c in coeffs.items():
        residue = residue - log_form(w.n, I).scale(c)
    if not residue.is_zero():
        raise LawViolation("log representative: w = sum c_I w_I + d(xi)")
    return coeffs, xi


def cup_table(spec: TorusSpec) -> dict:
    """Products [w_I].[w_J] expressed in the log basis, for I, J subsets of 1..k."""
    table = {}
    for qa in range(spec.k + 1):
        for qb in range(spec.k + 1):
            for I in itertools.combinations(range(1, spec.k + 1), qa):
                for J in itertools.combinations(range(1, spec.k + 1), qb):
                    prod = wedge(log_form(spec.n, I), log_form(spec.n, J))
                    table[(I, J)], _ = log_representative(prod, spec)
    return table


# ---------------------------------------------------------------------------
# Pole-order filtration (direct-limit model)


class PoleFiltrationReport(Record):
    levels: tuple          # per level 0..n_max: dims tuple per form degree
    stabilization: int


def pole_filtration_dims(spec: TorusSpec, n_max: int) -> PoleFiltrationReport:
    """Cohomology of the pole-order levels of the truncated complex.

    Level t is spanned by the forms whose inverted exponents are >= -t,
    completed with their d-images so each level is a subcomplex.  Level 0
    is the polynomial complex; the levels stabilize once the log classes
    are inside (their exponents are -1, so at level 1 for k >= 1).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    per_level = [[0] * (spec.n + 1) for _ in range(n_max + 1)]
    for m in multidegree_window(spec):
        cx = multidegree_complex(spec, m)
        bases = [cx.space(q).labels for q in range(spec.n + 1)]
        images = [cx.diff(q).transpose().rows for q in range(spec.n + 1)]  # d e_j, sparse
        for level in range(n_max + 1):
            # S^q: the basis forms whose inverted exponents are >= -level.
            # The level is L^q = S^q + d S^{q-1}, so d L^q = d S^q and
            # dim H^q = dim L^q - rank d S^q - rank d S^{q-1}, where
            # dim L^q = |S^q| + rank of d S^{q-1} off the S^q coordinates.
            sel = [[j for j, (_, I) in enumerate(bases[q])
                    if all(m[i] - (1 if (i + 1) in I else 0) >= -level
                           for i in range(spec.k))]
                   for q in range(spec.n + 1)]
            img_rank = [len(_echelon(images[q][j] for j in sel[q]))
                        for q in range(spec.n + 1)]
            for q in range(spec.n + 1):
                dim_level, prev_rank = len(sel[q]), 0
                if q > 0:
                    inside = set(sel[q])
                    off = [[(i, x) for i, x in images[q - 1][j] if i not in inside]
                           for j in sel[q - 1]]
                    dim_level += len(_echelon(off))
                    prev_rank = img_rank[q - 1]
                per_level[level][q] += dim_level - img_rank[q] - prev_rank
    levels = tuple(tuple(l) for l in per_level)
    stabilization = n_max
    while stabilization > 0 and levels[stabilization - 1] == levels[n_max]:
        stabilization -= 1
    return PoleFiltrationReport(levels, stabilization)


# ---------------------------------------------------------------------------
# Text and JSON syntax


_TERM_SPLIT = re.compile(r"(?<=[^\s^*])\s*(?=[+-])")
_FACTOR_RE = re.compile(r"[+-]?\d+(?:/(\d+))?|z(\d+)(?:\^(-?\d+))?|dz\d+(?:\^dz\d+)*")


def parse_form(text: str, n: int) -> AlgebraicForm:
    """Parse sums of terms like "3/2 * z1^-2 z2^1 dz1^dz3".

    A + or - starts a term unless the last non-space character before it is
    ^ or *; a term is one optional sign and at least one factor.  A dz block
    is sorted with the sign of its permutation, and only nonzero terms fix
    the form degree, so a form whose terms are all zero is the zero 0-form.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty form")
    terms = []
    for raw in _TERM_SPLIT.split(text):
        coeff = -ONE if raw[0] == "-" else ONE
        factors = raw[raw[0] in "+-":].replace("*", " ").split()
        if not factors:
            raise ValueError("dangling sign in form" if raw[0] in "+-" else "term with no factor")
        exps = [0] * n
        dz: tuple = ()
        for tok in factors:
            mt = _FACTOR_RE.fullmatch(tok)
            if mt is None:
                raise ValueError(f"cannot parse token {tok!r}")
            den, var, power = mt.groups()
            if tok.startswith("dz"):
                if dz:
                    raise ValueError("only one dz block per term")
                dz = tuple(int(s[2:]) for s in tok.split("^"))
                if any(not 1 <= i <= n for i in dz):
                    raise ValueError("dz index out of range")
            elif var:
                i = int(var)
                if not 1 <= i <= n:
                    raise ValueError(f"variable z{i} out of range for n={n}")
                exps[i - 1] += int(power) if power else 1
            elif den and not int(den):
                raise ValueError(f"zero denominator in {tok!r}")
            else:
                coeff *= Fraction(tok)
        if coeff and len(set(dz)) == len(dz):  # a repeated dz factor makes the term zero
            terms.append((tuple(exps), tuple(sorted(dz)), coeff * _sign(dz)))
    degrees = {len(dI) for _, dI, _ in terms}
    if len(degrees) > 1:
        raise ValueError("terms of mixed form degree")
    return _sum_terms(n, max(degrees, default=0), terms)


def form_to_text(w: AlgebraicForm) -> str:
    if w.is_zero():
        return "0"
    parts = []
    for exps, dI, c in w.terms:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"z{i + 1}")
            elif e != 0:
                factors.append(f"z{i + 1}^{e}")
        if dI:
            factors.append("^".join(f"dz{i}" for i in dI))
        if not factors:
            body = rat_to_str(c)
        elif c == 1:
            body = " ".join(factors)
        elif c == -1:
            body = "-" + " ".join(factors)
        else:
            body = rat_to_str(c) + " " + " ".join(factors)
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
