"""A small Laurent-form algebra used to build and check de Rham inputs.

It shares no code with `cohom.forms`, so the de Rham checks do not rest
on the engine's own arithmetic.  A form on n variables is a dict
{(exponents, dz index tuple): Fraction} with no zero values; dz indices
are 1-based and strictly increasing.
"""

from __future__ import annotations

import re
from fractions import Fraction


def clean(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c != 0}


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + scale * c
    return clean(out)


def _insert_sign(i: int, dI: tuple) -> int:
    """Sign of moving dz_i from the front into the sorted block dz_I."""
    return -1 if sum(1 for j in dI if j < i) % 2 else 1


def d(form: dict) -> dict:
    """Exterior derivative: d(c z^e dz_I) = sum_i c e_i z^(e - e_i) dz_i ^ dz_I."""
    out: dict = {}
    for (exps, dI), c in form.items():
        for i, e in enumerate(exps, start=1):
            if e == 0 or i in dI:
                continue
            key = (exps[:i - 1] + (e - 1,) + exps[i:], tuple(sorted(dI + (i,))))
            out[key] = out.get(key, Fraction(0)) + c * e * _insert_sign(i, dI)
    return clean(out)


def log_form(n: int, I: tuple, c=1) -> dict:
    """c * prod_{i in I} dz_i / z_i."""
    return {(tuple(-1 if i in I else 0 for i in range(1, n + 1)), tuple(I)): Fraction(c)}


def dlog_wedge(axis: int, form: dict) -> dict:
    """(dz_axis / z_axis) ^ form."""
    out: dict = {}
    for (exps, dI), c in form.items():
        if axis in dI:
            continue
        key = (exps[:axis - 1] + (exps[axis - 1] - 1,) + exps[axis:], tuple(sorted(dI + (axis,))))
        out[key] = out.get(key, Fraction(0)) + c * _insert_sign(axis, dI)
    return clean(out)


def to_input_text(form: dict) -> str:
    """Render in the `--reduce` syntax: "3/2 * z1^-2 z2 dz1^dz3 - 1 * z3 dz2"."""
    if not form:
        return "0"
    parts = []
    for (exps, dI), c in sorted(form.items()):
        factors = [f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(exps, start=1) if e]
        if dI:
            factors.append("^".join(f"dz{i}" for i in dI))
        body = " ".join([str(abs(c)), "*"] + factors) if factors else str(abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


_TERM_SPLIT = re.compile(r" ([+-]) ")
_VAR = re.compile(r"^z(\d+)(?:\^(-?\d+))?$")
_DZ = re.compile(r"^dz\d+(?:\^dz\d+)*$")
_RAT = re.compile(r"^\d+(?:/\d+)?$")


def parse_report_text(text: str, n: int) -> dict:
    """Parse a form as the CLI prints it ("-z1^-1 + 3/2 z2 dz1 - z1 dz2")."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    signed = [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2]))
    out: dict = {}
    for op, body in signed:
        sign = -1 if op == "-" else 1
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = Fraction(1)
        exps = [0] * n
        dI: tuple = ()
        for tok in body.split():
            if _RAT.match(tok):
                coeff = Fraction(tok)
            elif _VAR.match(tok):
                m = _VAR.match(tok)
                exps[int(m.group(1)) - 1] = int(m.group(2) or 1)
            elif _DZ.match(tok):
                dI = tuple(int(s[2:]) for s in tok.split("^"))
            else:
                raise ValueError(f"unexpected token {tok!r} in {text!r}")
        key = (tuple(exps), dI)
        out[key] = out.get(key, Fraction(0)) + sign * coeff
    return clean(out)
