"""Exact construction, verification, and rational reconstruction of
separable formal endomorphisms of elliptic curves y^2 = x^3 + A x + B
over finite fields of characteristic three.

The package exports the pipeline, the types its calls return and the
exception classes; everything else is imported from its submodule."""

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
from .gf3field import FieldElement, FieldParams
from .series import LaurentSeries
from .ratrec import RationalFunction, derive_map_pair, pade
from .isocore import (
    CompatReport,
    CurveParams,
    FormalEndomorphism,
    FunctionalEquationReport,
    Seed,
    construct,
    construct_with_report,
    verify_functional_equation,
)
from .curve import MapCheckReport, check_map, identify_scalar
from .exprparse import parse_rational_function

__all__ = [
    "BadInitial", "Char3Error", "FieldTooLarge", "GeneratorUnavailable",
    "IncompatibleSeed", "InsufficientPrecision", "InvalidCurveParameters",
    "MixedFields", "NonRegularPsi", "ParseError", "PointNotOnCurve",
    "PrecisionError", "SeedError", "VerificationFailed", "ZeroDenominator",
    "ZeroDivisor",
    "FieldElement", "FieldParams", "LaurentSeries", "RationalFunction",
    "derive_map_pair", "pade", "CompatReport", "CurveParams", "FormalEndomorphism",
    "FunctionalEquationReport", "Seed", "construct", "construct_with_report",
    "verify_functional_equation", "MapCheckReport", "check_map", "identify_scalar",
    "parse_rational_function",
]

__version__ = "0.1.0"
