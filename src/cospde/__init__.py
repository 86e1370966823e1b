"""Elliptic PDE solves in a closed algebra of finite cosine sums.

The package represents coefficients, data, and iterates as canonical sums of
cosine atoms, runs a preconditioned gradient iteration whose every step stays
inside that algebra with certified norm/radius ledgers, samples two-layer
cosine networks from the rebalanced atom measure, and cross-checks solves
against an independent spectral Galerkin reference.
"""

from .atoms import (
    Atom,
    AtomSum,
    add,
    evaluate,
    from_text,
    h1_norm_torus,
    h_minus1_norm_torus,
    l2_norm_torus,
    prune,
    scale,
    sum_many,
    to_text,
)
from .calculus import (
    RebalancedMeasure,
    apply_elliptic,
    from_fourier_data,
    general_norm_bound,
    partial_derivative,
    precondition,
    product,
    rebalance,
    second_derivative,
)
from .oracle import (
    ProbeFailureError,
    SpectralField,
    default_truncation,
    ellipticity_probe,
    fft_precondition_check,
    galerkin_solve,
    green1d_check,
    h1_distance,
)
from .problem import (
    EllipticProblem,
    constant_sum,
    diagonal_coefficients,
    diagonal_cosine_family,
    identity_coefficients,
)
from .problemfile import (
    ParseError,
    ProblemFileData,
    build_problem,
    parse_problem_file,
    parse_problem_text,
)
from .sampler import (
    RateStudyResult,
    TwoLayerNet,
    h1_error_exact,
    rate_study,
    rms_error_bound,
    sample_network,
)
from .solver import (
    IterationState,
    LedgerRecord,
    LedgerViolationError,
    SolveResult,
    cosine_ledger_bound,
    growth_factor,
    initial_state,
    iteration_count_bound,
    main_theorem_predictor,
    optimal_step,
    solve,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomSum",
    "EllipticProblem",
    "IterationState",
    "LedgerRecord",
    "LedgerViolationError",
    "ParseError",
    "ProbeFailureError",
    "ProblemFileData",
    "RateStudyResult",
    "RebalancedMeasure",
    "SolveResult",
    "SpectralField",
    "TwoLayerNet",
    "add",
    "apply_elliptic",
    "build_problem",
    "constant_sum",
    "cosine_ledger_bound",
    "default_truncation",
    "diagonal_coefficients",
    "diagonal_cosine_family",
    "ellipticity_probe",
    "evaluate",
    "fft_precondition_check",
    "from_fourier_data",
    "from_text",
    "galerkin_solve",
    "general_norm_bound",
    "green1d_check",
    "growth_factor",
    "h1_distance",
    "h1_error_exact",
    "h1_norm_torus",
    "h_minus1_norm_torus",
    "identity_coefficients",
    "initial_state",
    "iteration_count_bound",
    "l2_norm_torus",
    "main_theorem_predictor",
    "optimal_step",
    "parse_problem_file",
    "parse_problem_text",
    "precondition",
    "partial_derivative",
    "product",
    "prune",
    "rate_study",
    "rebalance",
    "rms_error_bound",
    "sample_network",
    "scale",
    "second_derivative",
    "solve",
    "step",
    "sum_many",
    "to_text",
    "__version__",
]
