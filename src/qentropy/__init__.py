"""Deformed entropy families, generalized Shannon-Khinchin axiom checks,
and the Weierstrass-built deformation that is differentiable only at q = 1.
"""

from .errors import (
    DomainError,
    EvaluationError,
    InputError,
    InvalidFamilySpec,
    InvalidWeierstrassParams,
    NegativeEntropy,
    NegativeEntry,
    NonPositiveK,
    NotNormalized,
    OutOfTableRange,
    PhiVanishes,
    QentropyError,
    ZeroMarginal,
    ZeroSum,
    ZeroWithNonpositiveExponent,
)
from .simplex import (
    Distribution,
    Refinement,
    make_distribution,
    sample_refinement,
    sample_simplex,
    uniform_distribution,
)
from .deformation import (
    DeformationFunction,
    EntropyFamily,
    family_from_spec,
    negated_phi,
    one_minus_q_alpha,
    power_alpha,
    power_family,
    power_phi,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
    weierstrass_phi,
)
from .weierstrass import (
    AB_LOWER_BOUND,
    ProbeResult,
    WeierstrassParams,
    difference_quotients,
    eval_W,
    eval_phi_counterexample,
    nondifferentiability_probe,
)
from .entropy import (
    EntropyValue,
    entropies,
    generalized_entropy,
    information_content,
    pseudoadditive_compose,
    shannon_entropy,
    suyari_entropy,
    trace_expectation,
)
from .axioms import (
    AxiomReport,
    CheckConfig,
    CheckRecord,
    check_alpha_phi_limit,
    check_constraint_region,
    check_convexity_of_I,
    check_expandability,
    check_generalized_additivity,
    check_maximality,
    check_phi_derivative_at_1,
    check_pseudoadditivity,
    check_shannon_limit,
    check_sign_condition,
    derivative_limit_probe,
    run_full_report,
)

__version__ = "0.1.0"
