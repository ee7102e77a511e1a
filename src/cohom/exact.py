"""The exact-arithmetic kernel under every layer of cohom.

A stored entry is an `int` when integral and a `Fraction` otherwise
(`rat`), so integer inputs pay for no `Fraction` arithmetic; both compare
and hash alike, and `fractions` is imported only once an entry is not an
int.  No entry is divided with `/`.  One fraction-free sparse elimination
step, `_reduce`, serves every caller: a rank is a row reduction
(`_echelon`), and representatives and the spectral pairing read one
column reduction (`reduce_columns`), whose integer columns are divided by
their one scale only on output (`quotient`).  Every value type is a
`Record`: defining one generates no code.  This module imports no other
part of the package, so a layer that needs no maps loads nothing else.
"""

from __future__ import annotations

import sys
from functools import partial
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator, Sequence


class CohomError(Exception):
    """Base class for mathematical-invariant errors in this package."""


class LawViolation(CohomError):
    """An internal self-check failed; `law` names the identity that broke."""

    def __init__(self, law: str, detail: str = ""):
        self.law = law
        super().__init__(f"law '{law}' fails" + (f": {detail}" if detail else ""))


class WindowExhausted(CohomError):
    """A truncation window is too small for the answer to be stable."""


ZERO = 0
ONE = 1


def _fraction():
    """The Fraction class; `fractions` (with `decimal` and `numbers`) is imported
    on the first call.  A function-level import statement costs a lookup in
    the import machinery on every call; sys.modules is one dict read."""
    fractions = sys.modules.get("fractions")
    if fractions is None:
        import fractions
    return fractions.Fraction


def rat(x):
    """The int or Fraction x as a stored entry: an int when integral."""
    if type(x) is int:
        return x
    if isinstance(x, _fraction()):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"an entry must be an int or a Fraction, not {x!r}")


def quotient(x: int, s: int):
    """The rational x / s of two ints, as a stored entry."""
    return x // s if x % s == 0 else _fraction()(x, s)


def rat_to_str(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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


# ---------------------------------------------------------------------------
# Elimination.  `_reduce` is the one loop, on vectors cleared to integers and
# kept sparse (index -> int).  A rank is a row reduction that carries nothing
# (`_echelon`); representatives and the spectral pairing read one column
# reduction (`reduce_columns`).


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


def dims_from_ranks(sizes, ranks) -> tuple[int, ...]:
    """dim K^n - rank d_n - rank d_{n-1}, given every degree's size and every d's rank."""
    r = [0, *ranks, 0]
    return tuple(s - r[i + 1] - r[i] for i, s in enumerate(sizes))
