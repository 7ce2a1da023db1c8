"""Construction of separable formal endomorphisms of y^2 = x^3 + A x + B
over fields of characteristic three.

The x-part eta of such a map satisfies

    c^2 (X^3 + A X + B) (eta')^2 = eta^3 + A eta + B

as a Laurent series with at most a simple pole. Splitting eta by exponent
residue mod 3 into alpha (= 1), beta (= 2) and gamma (= 0) parts turns the
equation into three tractable pieces:

  * a linear relation  c^2 A X alpha + c^2 (X^3 + B) beta = A X^2  that
    determines either of alpha/beta from the other;
  * a regularity and residue condition on the combination
    psi = c^2 (X^3+AX+B) ((alpha-beta)/X)^2 - alpha^3 - beta^3
          - A alpha - A beta - B;
  * the additive-cubic equation gamma^3 + A gamma = psi, solved by a
    forward coefficient recurrence once a constant term gamma(0) with
    gamma(0)^3 + A gamma(0) = psi(0) exists in the base field.

construct() runs the whole pipeline once and returns one endomorphism per
admissible constant term: the first, verified, and its kernel translates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadInitial,
    IncompatibleSeed,
    InvalidCurveParameters,
    NonRegularPsi,
    PrecisionError,
    SeedError,
    VerificationFailed,
)
from .gf3field import FieldElement, FieldParams, solve_additive_cubic
from .ratrec import Polynomial, RationalFunction
from .series import INF, LaurentSeries, in_residue_class

# Extra working coefficients: psi assembly and the squared difference
# quotient shift exponents by a few places, so construct computes with
# prec + GUARD_PRECISION and truncates, keeping every reported
# coefficient exact.
GUARD_PRECISION = 8


class CurveParams:
    """y^2 = x^3 + A x + B with the scale constant c of the y-coordinate map.

    A = 0 is rejected (the curve is singular in characteristic three, where
    x^3 + B is a cube), as is c = 0 (the maps built here are separable).
    """

    __slots__ = ("field", "A", "B", "c")

    def __init__(self, field: FieldParams, A, B, c):
        if isinstance(A, int):
            A = field.from_int(A)
        if isinstance(B, int):
            B = field.from_int(B)
        if isinstance(c, int):
            c = field.from_int(c)
        if A.field != field or B.field != field or c.field != field:
            raise InvalidCurveParameters("curve constants from a different field")
        if A.is_zero:
            raise InvalidCurveParameters("A = 0 gives a singular curve")
        if c.is_zero:
            raise InvalidCurveParameters("c = 0 is not a separable map")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("CurveParams is immutable")

    def rhs_series(self):
        """X^3 + A X + B as an exact series."""
        return LaurentSeries.from_terms(
            self.field, {0: self.B, 1: self.A, 3: self.field.one}
        )

    def __eq__(self, other):
        if not isinstance(other, CurveParams):
            return NotImplemented
        return (self.field == other.field and self.A == other.A
                and self.B == other.B and self.c == other.c)

    def __hash__(self):
        return hash((self.field, self.A, self.B, self.c))

    def __repr__(self):
        return f"CurveParams(GF(3^{self.field.degree}), A={self.A}, B={self.B}, c={self.c})"


@dataclass(frozen=True)
class Seed:
    """Starting datum for the pipeline: either the alpha or the beta part.

    The series data is kept as an exact rational function so it can be
    expanded to any working precision; a plain polynomial seed is the
    rational function with denominator one.
    """

    kind: str  # "alpha" or "beta"
    source: RationalFunction

    def __post_init__(self):
        if self.kind not in ("alpha", "beta"):
            raise SeedError(f"unknown seed kind {self.kind!r}")

    @classmethod
    def alpha(cls, source):
        return cls("alpha", _as_rational(source))

    @classmethod
    def beta(cls, source):
        return cls("beta", _as_rational(source))

    def expand(self, prec):
        """Expansion to the given precision, validated for this seed kind.

        alpha seeds live at exponents = 1 (mod 3) with valuation >= 1;
        beta seeds at exponents = 2 (mod 3) with a pole of order at most
        one. The zero series is a valid seed of either kind.
        """
        s = self.source.expand(prec)
        if self.kind == "alpha":
            if not in_residue_class(s, 1):
                raise SeedError("alpha seed has exponents not = 1 (mod 3)")
            if not s.is_zero and s.val < 1:
                raise SeedError("alpha seed must have valuation >= 1")
        else:
            if not in_residue_class(s, 2):
                raise SeedError("beta seed has exponents not = 2 (mod 3)")
            if not s.is_zero and s.val < -1:
                raise SeedError("beta seed may have a pole of order at most one")
        return s


def _as_rational(source):
    if isinstance(source, RationalFunction):
        return source
    if isinstance(source, Polynomial):
        return RationalFunction.from_polynomial(source)
    raise SeedError("seed source must be a RationalFunction or Polynomial")


@dataclass(frozen=True)
class CompatReport:
    """Diagnostics gathered while checking whether a seed admits solutions.

    principal_part_ok requires psi to have no coefficients at negative
    exponents nor at exponents not divisible by three; when it holds,
    gamma0_roots lists every solution of t^3 + A t = psi(0) in the field.
    beta_minus1 and alpha1 are the coefficients of X^-1 in beta and of X
    in alpha.
    """

    psi0: FieldElement
    principal_part_ok: bool
    gamma0_roots: tuple
    beta_minus1: FieldElement
    alpha1: FieldElement


class FormalEndomorphism:
    """A constructed solution: the x-part eta with its derivation data.

    Satisfies c^2 (X^3+AX+B) (eta')^2 = eta^3 + A eta + B to the carried
    precision; the y-part of the full map is c * y * eta'(x).
    """

    __slots__ = ("curve", "eta", "gamma0", "prec")

    def __init__(self, curve, eta, gamma0, prec):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma0", gamma0)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("FormalEndomorphism is immutable")

    def __repr__(self):
        return f"<endomorphism gamma0={self.gamma0} eta={self.eta}>"


def beta_from_alpha(curve, alpha, prec=None):
    """The beta part determined by alpha through
    c^2 A X alpha + c^2 (X^3 + B) beta = A X^2.

    For B != 0 the divisor is a unit and beta lands in X^2 K[[X]]; for
    B = 0 the division by X^3 may leave a simple pole.
    """
    c2 = curve.c * curve.c
    x = LaurentSeries.monomial(curve.field, 1)
    x2 = LaurentSeries.monomial(curve.field, 2)
    num = x2 * curve.A - x * alpha * (c2 * curve.A)
    den = LaurentSeries.from_terms(curve.field, {0: c2 * curve.B, 3: c2})
    beta = num.divide(den, prec=prec)
    _require(in_residue_class(beta, 2), "beta left its residue class")
    return beta


def alpha_from_beta(curve, beta, prec=None):
    """The alpha part determined by beta (inverse direction of the linear
    relation). Fails when the numerator is not divisible by X, e.g. for
    B != 0 with a genuine pole in beta."""
    c2 = curve.c * curve.c
    x2 = LaurentSeries.monomial(curve.field, 2)
    x3_plus_b = LaurentSeries.from_terms(curve.field, {0: curve.B, 3: 1})
    num = x2 * curve.A - x3_plus_b * beta * c2
    if not num.is_zero and num.val < 1:
        raise IncompatibleSeed(
            "beta seed leaves a term below X^1; no alpha part exists"
        )
    alpha = num.shift(-1) * (c2 * curve.A).inverse()
    if prec is not None:
        alpha = alpha.truncate(prec)
    _require(in_residue_class(alpha, 1), "alpha left its residue class")
    return alpha


def compute_psi(curve, alpha, beta):
    """The series whose regularity gates the existence of the gamma part:

    psi = c^2 (X^3+AX+B) ((alpha-beta)/X)^2
          - alpha^3 - beta^3 - A alpha - A beta - B.

    When the linear relation holds and B != 0 this lies in K[[X]] with all
    exponents divisible by three; for B = 0 it may carry a principal part
    down to X^-3, which compatibility_check then inspects.
    """
    c2 = curve.c * curve.c
    diff = (alpha - beta).shift(-1)
    lhs = curve.rhs_series() * (diff * diff) * c2
    return (lhs - alpha.cube() - beta.cube()
            - alpha * curve.A - beta * curve.A - curve.B)


def compatibility_check(curve, alpha, beta, psi):
    """Inspect psi = compute_psi(curve, alpha, beta) and report whether
    gamma can exist.

    The check is generic: every known coefficient of psi at a negative
    exponent or at an exponent not divisible by three must vanish, and
    t^3 + A t = psi(0) must have a root in the field. Failure is encoded
    in the report, not raised.
    """
    ok = in_residue_class(psi, 0) and (psi.is_zero or psi.val >= 0)
    try:
        psi0 = psi.coefficient(0)
    except PrecisionError:
        raise ValueError("psi carries no constant term at this precision") from None
    roots = solve_additive_cubic(curve.A, psi0) if ok else ()
    return CompatReport(psi0=psi0, principal_part_ok=ok, gamma0_roots=roots,
                        beta_minus1=beta.coefficient(-1), alpha1=alpha.coefficient(1))


def solve_gamma(A, psi, gamma0, prec):
    """The gamma part: the series in X^3 solving gamma^3 + A gamma = psi.

    Writing psi = sum C_n X^(3n) and gamma = sum g_n X^(3n), matching
    coefficients of the Frobenius expansion gamma^3 = sum g_n^3 X^(9n)
    gives a forward recurrence:

        g_0   = gamma0                      (given root of t^3 + A t = C_0)
        g_n   = C_n / A                     when 3 does not divide n
        g_3l  = (C_3l - g_l^3) / A          for l >= 1

    The result is substituted back into gamma^3 + A gamma and compared
    with psi before returning.
    """
    if not (in_residue_class(psi, 0) and (psi.is_zero or psi.val >= 0)):
        raise NonRegularPsi(
            "psi must be a power series with exponents divisible by three"
        )
    field = A.field
    if gamma0.frobenius() + A * gamma0 != psi.coefficient(0):
        raise BadInitial("gamma0 does not solve t^3 + A t = psi(0)")
    count = (prec + 2) // 3  # indices n with 3n < prec
    if psi.prec != INF:
        count = min(count, (int(psi.prec) + 2) // 3)
    a_inv = A.inverse()
    g = [gamma0]
    for n in range(1, count):
        c_n = psi.coefficient(3 * n)
        if n % 3 != 0:
            g.append(c_n * a_inv)
        else:
            g.append((c_n - g[n // 3].frobenius()) * a_inv)
    out_prec = min(prec, 3 * count)
    gamma = LaurentSeries.from_terms(
        field, {3 * n: g[n] for n in range(count)}, out_prec
    )
    _require((gamma.cube() + gamma * A).agrees_with(psi),
             "gamma recurrence failed substitution check")
    return gamma


@dataclass(frozen=True)
class FunctionalEquationReport:
    ok: bool
    checked_prec: object  # int or INF
    first_bad_exponent: int | None
    first_bad_coefficient: FieldElement | None


def verify_functional_equation(curve, eta, prec=None):
    """Residual of the defining equation for a candidate x-part.

    Computes r = c^2 (X^3+AX+B) (eta')^2 - eta^3 - A eta - B to the
    achievable precision (optionally capped) and reports whether it
    vanishes, with the first offending term otherwise.
    """
    if not eta.is_zero and eta.val < -1:
        raise ValueError("eta must have a pole of order at most one")
    c2 = curve.c * curve.c
    d = eta.derivative()
    r = (curve.rhs_series() * (d * d) * c2
         - eta.cube() - eta * curve.A - curve.B)
    if prec is not None:
        r = r.truncate(prec)
    if r.is_zero:
        return FunctionalEquationReport(True, r.prec, None, None)
    return FunctionalEquationReport(False, r.prec, r.val, r.coeffs[0])


def construct(curve, seed, prec):
    """Run the full pipeline for a seed and return all solutions.

    Expands the seed at prec + GUARD_PRECISION, determines the partner
    part through the linear relation, gates on the compatibility report,
    then solves for gamma from the first admissible constant term and
    shifts the result by each other root's difference from it. Results are
    ordered by the constant term's coefficient vector; each one's prec is
    the precision its eta is known to, which is `prec`.

    Raises IncompatibleSeed when psi has a surviving principal part or
    the additive cubic has no root in the base field, and
    VerificationFailed when the guard coefficients ran out before `prec`.
    """
    return construct_with_report(curve, seed, prec)[1]


def construct_with_report(curve, seed, prec):
    """Like construct but also returns the compatibility diagnostics."""
    if prec < 16:
        raise ValueError("prec must be at least 16")
    wp = prec + GUARD_PRECISION
    if seed.kind == "alpha":
        alpha = seed.expand(wp)
        beta = beta_from_alpha(curve, alpha)
    else:
        beta = seed.expand(wp)
        alpha = alpha_from_beta(curve, beta)
    psi = compute_psi(curve, alpha, beta)
    report = compatibility_check(curve, alpha, beta, psi)
    if not report.principal_part_ok:
        raise IncompatibleSeed(
            "psi has coefficients off the regular residue-zero grid", report
        )
    if not report.gamma0_roots:
        raise IncompatibleSeed(
            f"t^3 + A t = {report.psi0} has no root in the base field", report
        )
    # All roots share the gamma tail (the recurrence reads gamma(0) only at
    # n = 0), and residual(eta + kappa) = residual(eta) - (kappa^3 + A kappa):
    # one substitution plus a kernel check per root verifies every solution.
    gamma0 = report.gamma0_roots[0]
    eta = alpha + beta + solve_gamma(curve.A, psi, gamma0, wp)
    _require(verify_functional_equation(curve, eta).ok,
             "constructed eta fails its defining equation")
    c2 = curve.c * curve.c
    x3_plus_b = LaurentSeries.from_terms(curve.field, {0: curve.B, 3: 1})
    linear = (alpha.shift(1) * (c2 * curve.A) + x3_plus_b * beta * c2
              - LaurentSeries.monomial(curve.field, 2, curve.A))
    _require(linear.is_zero, "alpha and beta fail the linear relation")
    _require(eta.prec >= prec,
             f"guard precision ran out: eta is known to X^{eta.prec}, not X^{prec}")
    eta = eta.truncate(prec)
    results = []
    for root in report.gamma0_roots:
        kappa = root - gamma0
        _require((kappa.frobenius() + curve.A * kappa).is_zero,
                 "roots of the additive cubic differ outside its kernel")
        results.append(FormalEndomorphism(curve, eta + kappa, root, eta.prec))
    return report, results


def _require(condition, message):
    """A self-check that stays on under python -O."""
    if not condition:
        raise VerificationFailed(message)
