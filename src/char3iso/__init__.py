"""Exact construction, verification, and rational reconstruction of
separable formal endomorphisms of elliptic curves y^2 = x^3 + A x + B
over finite fields of characteristic three."""

from .errors import (
    BadInitial,
    Char3Error,
    FieldTooLarge,
    GeneratorUnavailable,
    IncompatibleSeed,
    InsufficientPrecision,
    InvalidCurveParameters,
    MixedFields,
    NonRegularPsi,
    ParseError,
    PointNotOnCurve,
    PrecisionError,
    SeedError,
    VerificationFailed,
    ZeroDenominator,
    ZeroDivisor,
)
from .gf3field import DEFAULT_MODULI, FieldElement, FieldParams, solve_additive_cubic, sqrt
from .series import (
    INF,
    Homogeneity,
    LaurentSeries,
    TriSplit,
    expand_rational,
    homogeneity_class,
    in_residue_class,
    split,
    split_by_formula,
)
from .ratrec import (
    Polynomial,
    RationalFunction,
    derive_map_pair,
    pade,
    poly_extended_euclid,
    poly_gcd,
)
from .isocore import (
    CompatReport,
    ClosedFormConditions,
    CurveParams,
    FormalEndomorphism,
    FunctionalEquationReport,
    Seed,
    alpha_from_beta,
    beta_from_alpha,
    closed_form_conditions,
    compatibility_check,
    compute_psi,
    construct,
    construct_with_report,
    solve_gamma,
    verify_functional_equation,
)
from .curve import (
    MapCheckReport,
    Point,
    apply_map,
    check_map,
    enumerate_points,
    identify_scalar,
    on_curve,
    p_add,
    p_double,
    p_neg,
    scalar_mul,
)
from .exprparse import parse_field_element, parse_polynomial, parse_rational_function

__version__ = "0.1.0"
