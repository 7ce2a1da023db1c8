"""Exception types shared across the package."""


class Char3Error(Exception):
    """Base class for all library errors."""


class MixedFields(Char3Error):
    """Operands belong to different field instances."""


class ZeroDivisor(Char3Error):
    """Series division by a series that is zero to its precision."""


class PrecisionError(Char3Error):
    """A coefficient beyond the known precision of a series was requested."""


class ZeroDenominator(Char3Error):
    """A rational function was built with a zero denominator."""


class InsufficientPrecision(Char3Error):
    """Not enough series coefficients to certify a reconstruction."""


class NonRegularPsi(Char3Error):
    """Right-hand side of the cube-plus-linear equation has a principal
    part or coefficients at exponents not divisible by three."""


class BadInitial(Char3Error):
    """Proposed constant term does not solve the additive cubic."""


class SeedError(Char3Error):
    """Seed series violates its homogeneity class or valuation bound."""


class IncompatibleSeed(Char3Error):
    """Seed admits no formal endomorphism (failed compatibility check)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class VerificationFailed(Char3Error):
    """A self-check of a computed result failed: the result is wrong."""


class InvalidCurveParameters(Char3Error):
    """Curve parameters are singular or degenerate (A = 0 or c = 0)."""


class PointNotOnCurve(Char3Error):
    """A point handed to the group law does not satisfy the curve equation."""


class FieldTooLarge(Char3Error):
    """Field exceeds the exhaustive-enumeration cap."""


class ParseError(Char3Error):
    """Malformed input text; `offset` is the 0-based byte position."""

    def __init__(self, offset, message):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


class GeneratorUnavailable(ParseError):
    """The generator symbol 't' was used over the prime field."""
