"""Exact construction, verification, and rational reconstruction of
separable formal endomorphisms of elliptic curves y^2 = x^3 + A x + B
over finite fields of characteristic three.

The package exports the pipeline, the types its calls return and the
exception classes; everything else is imported from its submodule.
check_map and MapCheckReport are exported lazily (PEP 562): only their
first access imports curve, which construct and verify never load."""

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
    "verify_functional_equation", "MapCheckReport", "check_map", "parse_rational_function",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("MapCheckReport", "check_map"):
        from . import curve
        return getattr(curve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
