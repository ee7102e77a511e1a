"""Exact-arithmetic computational homological algebra.

Cohomology of cochain complexes, spectral sequences of bounded double
complexes, Cech (hyper)cohomology on finite covers, and algebraic de
Rham cohomology of torus models and the projective line, all over the
rationals with zero floating-point error.
"""

__version__ = "0.1.0"
