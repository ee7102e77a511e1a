"""Exact-arithmetic computational homological algebra.

Cohomology of cochain complexes, spectral sequences of bounded double
complexes, Cech (hyper)cohomology on finite covers, and algebraic de
Rham cohomology of torus models and the projective line, all over the
rationals with zero floating-point error.
"""

__version__ = "0.1.0"

from .linalg import (
    AmbientMismatch,
    CohomError,
    ContainmentViolated,
    LabeledSpace,
    LawViolation,
    LinearMap,
    Subspace,
    image_basis,
    kernel_basis,
    rank,
    solve,
    subquotient,
)
from .complexes import (CochainComplex, CohomologyReport, NotAComplex, cohomology,
                        cohomology_dims, direct_sum, validate)
from .grid import (
    DoubleComplex,
    GridTooLarge,
    InvariantViolation,
    TripleComplex,
    flatten_fix_p,
    flatten_fix_r,
    tensor_double_complex,
    tensor_triple_complex,
    total,
    totals_agree,
)
from .spectral import (
    ConvergenceCertificate,
    ConvergenceFailure,
    SpectralPage,
    certify_convergence,
    first_pages,
    second_pages,
)
from .cech import (
    CoverNerve,
    IncompatibleRestrictions,
    LevelMapMismatch,
    MissingFaceSpace,
    SheafOnCover,
    cech_cohomology,
    cech_complex,
    cech_hyper,
    function_sheaf,
)
from .forms import (
    AlgebraicForm,
    LogClassVector,
    NotClosed,
    PoleOnNonInvertedAxis,
    TorusSpec,
    VariableCountMismatch,
    WindowExhausted,
    cup_table,
    derham_cohomology,
    exterior_derivative,
    log_form,
    log_representative,
    multidegree_split,
    pole_filtration_dims,
    pole_reduce,
    wedge,
)
from .presets import ParameterOutOfRange, build_circle, build_p1, build_torus
