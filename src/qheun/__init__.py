"""Exact q-Heun spectral polynomials and their ultradiscrete root asymptotics.

The package computes the spectral polynomial c_{N+1}(E) exactly over a ring
of q-monomial sums, classifies the parameters into the three tractable
q -> +0 regimes, predicts the root asymptotics E ~ +-c q^d, and verifies the
predictions against extended-precision root isolation plus a residual check
of the q-Heun equation itself.
"""

from .errors import (
    CancellationError,
    DegenerateSPolyError,
    DomainError,
    ExcludedCaseError,
    MatchingError,
    ParameterError,
    PrecisionError,
    QHeunError,
    RegimeError,
    SignIndefiniteError,
    ZeroQSumError,
)
from .qmono import (
    CancellationEvent,
    QMonomial,
    QSum,
    equiv_approx,
    equiv_sim,
    leading_part,
    qpow,
    ultradiscretize,
)
from .spectral import (
    EPoly,
    HeunParams,
    SeriesSolution,
    coefficients_exact,
    coefficients_numeric,
    derive,
    residual_check,
    spectral_polynomial,
)
from .ultra import (
    CaseTag,
    PredictedRoot,
    classify,
    collision_check,
    leading_recursion,
    multiplicity_prefactors,
    pn_root_pair,
    predict_roots,
    tilde_cN1,
)
from .roots import (
    MatchReport,
    RootEstimate,
    estimate_exponents,
    find_real_roots,
    find_spectral_roots,
    match_predictions,
)

__version__ = "0.1.0"
