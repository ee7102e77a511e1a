"""Seeded random forms for the de Rham property tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from cohom.forms import AlgebraicForm, TorusSpec, exterior_derivative, log_form


def random_form(rng: random.Random, spec: TorusSpec, q: int,
                max_terms: int = 4) -> AlgebraicForm:
    """Random q-form with window exponents; may be zero."""
    if not 0 <= q <= spec.n:
        return AlgebraicForm.zero(spec.n, max(q, 0))
    subsets = list(itertools.combinations(range(1, spec.n + 1), q))
    out = AlgebraicForm.zero(spec.n, q)
    for _ in range(rng.randint(0, max_terms)):
        dI = rng.choice(subsets)
        exps = []
        for i in range(1, spec.n + 1):
            lo = -spec.window if spec.inverted(i) else 0
            exps.append(rng.randint(lo, spec.window))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        out = out + AlgebraicForm.monomial(spec.n, coeff, tuple(exps), dI)
    return out


def random_closed_form(rng: random.Random, spec: TorusSpec, q: int) -> AlgebraicForm:
    """d(random form) plus a random combination of log generators."""
    phi = exterior_derivative(random_form(rng, spec, q - 1)) if q >= 1 \
        else AlgebraicForm.zero(spec.n, 0)
    if q == 0:
        phi = AlgebraicForm.monomial(spec.n, rng.randint(1, 5), (0,) * spec.n)
    for I in itertools.combinations(range(1, spec.k + 1), q):
        c = rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])
        if c:
            phi = phi + log_form(spec.n, I).scale(c)
    return phi
