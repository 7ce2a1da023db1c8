"""Construction of separable formal endomorphisms of y^2 = x^3 + A x + B
over fields of characteristic three.

The x-part eta of such a map satisfies

    c^2 (X^3 + A X + B) (eta')^2 = eta^3 + A eta + B

as a Laurent series with at most a simple pole. Splitting eta by exponent
residue mod 3 into alpha (= 1), beta (= 2) and gamma (= 0) parts turns the
equation into three tractable pieces:

  * a linear relation  c^2 A X alpha + c^2 (X^3 + B) beta = A X^2  that
    determines either of alpha/beta from the other;
  * a regularity and residue condition on psi, the residual of alpha +
    beta in the equation (gamma' = 0 and cubing is additive, so eta' =
    (alpha - beta)/X and psi = c^2 (X^3+AX+B) ((alpha-beta)/X)^2 -
    alpha^3 - beta^3 - A alpha - A beta - B);
  * the additive-cubic equation gamma^3 + A gamma = psi, solved as the
    fixed point of gamma <- (psi - gamma^3) / A on whole coefficient
    columns, from a constant term gamma(0) with gamma(0)^3 + A gamma(0) =
    psi(0) in the base field; each pass triples the precision gamma is known to.

construct() runs the whole pipeline once and returns one endomorphism per
admissible constant term: the first, verified, and its kernel translates.
"""

from __future__ import annotations

from .errors import (
    BadInitial,
    IncompatibleSeed,
    InvalidCurveParameters,
    NonRegularPsi,
    PrecisionError,
    SeedError,
    VerificationFailed,
)
from .gf3field import solve_additive_cubic
from .ratrec import RationalFunction
from .record import Record
from .series import INF, LaurentSeries, in_residue_class

# Extra working coefficients: psi assembly and the squared difference
# quotient shift exponents by a few places, so construct computes with
# prec + GUARD_PRECISION and truncates, keeping every reported
# coefficient exact.
GUARD_PRECISION = 8


class CurveParams(Record):
    """y^2 = x^3 + A x + B with the scale constant c of the y-coordinate map.

    A = 0 is rejected (the curve is singular in characteristic three, where
    x^3 + B is a cube), as is c = 0 (the maps built here are separable).
    """

    __slots__ = ("field", "A", "B", "c")  # A, B and c FieldElements or ints

    def __post_init__(self):
        for name in ("A", "B", "c"):
            value = getattr(self, name)
            if isinstance(value, int):
                object.__setattr__(self, name, self.field.from_int(value))
            elif value.field != self.field:
                raise InvalidCurveParameters("curve constants from a different field")
        if self.A.is_zero:
            raise InvalidCurveParameters("A = 0 gives a singular curve")
        if self.c.is_zero:
            raise InvalidCurveParameters("c = 0 is not a separable map")

    def rhs_series(self):
        """X^3 + A X + B as an exact series."""
        return LaurentSeries.from_terms(
            self.field, {0: self.B, 1: self.A, 3: self.field.one}
        )

    def __repr__(self):
        return f"CurveParams(GF(3^{self.field.degree}), A={self.A}, B={self.B}, c={self.c})"


class Seed(Record):
    """Starting datum for the pipeline: either the alpha or the beta part.

    The series data is kept as an exact rational function so it can be
    expanded to any working precision; a polynomial seed, an exact power
    series, is the rational function with denominator one.
    """

    __slots__ = ("kind", "source")  # "alpha" or "beta", a RationalFunction

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
    if (isinstance(source, LaurentSeries) and source.prec == INF
            and (source.val is None or source.val >= 0)):  # an exact polynomial
        return RationalFunction.from_polynomial(source)
    raise SeedError("seed source must be a RationalFunction or an exact power series")


class CompatReport(Record):
    """Diagnostics gathered while checking whether a seed admits solutions.

    principal_part_ok requires psi to have no coefficients at negative
    exponents nor at exponents not divisible by three; when it holds,
    gamma0_roots lists every solution of t^3 + A t = psi(0) in the field.
    beta_minus1 and alpha1 are the coefficients of X^-1 in beta and of X
    in alpha.
    """

    __slots__ = ("psi0", "principal_part_ok", "gamma0_roots", "beta_minus1", "alpha1")


class FormalEndomorphism(Record):
    """A constructed solution: the x-part eta with its derivation data.

    Satisfies c^2 (X^3+AX+B) (eta')^2 = eta^3 + A eta + B to the carried
    precision; the y-part of the full map is c * y * eta'(x).
    """

    __slots__ = ("curve", "eta", "gamma0", "prec")

    def __repr__(self):
        return f"<endomorphism gamma0={self.gamma0} eta={self.eta}>"


def _linear_relation(curve):
    """(p, q, r) = (c^2 A X, c^2 (X^3 + B), A X^2): p alpha + q beta = r."""
    c2 = curve.c * curve.c
    return (LaurentSeries.monomial(curve.field, 1, c2 * curve.A),
            LaurentSeries.from_terms(curve.field, {0: c2 * curve.B, 3: c2}),
            LaurentSeries.monomial(curve.field, 2, curve.A))


def beta_from_alpha(curve, alpha):
    """The beta part determined by alpha through the linear relation.

    For B != 0 the divisor is a unit and beta lands in X^2 K[[X]]; for
    B = 0 the division by X^3 may leave a simple pole.
    """
    p, q, r = _linear_relation(curve)
    beta = (r - p * alpha).divide(q)
    _require(in_residue_class(beta, 2), "beta left its residue class")
    return beta


def alpha_from_beta(curve, beta):
    """The alpha part determined by beta (inverse direction of the linear
    relation). Fails when the numerator is not divisible by X, e.g. for
    B != 0 with a genuine pole in beta."""
    p, q, r = _linear_relation(curve)
    num = r - q * beta
    if not num.is_zero and num.val < 1:
        raise IncompatibleSeed("beta seed leaves a term below X^1; no alpha part exists")
    alpha = num.divide(p)
    _require(in_residue_class(alpha, 1), "alpha left its residue class")
    return alpha


def _lhs(curve, eta):
    """c^2 (X^3+AX+B) (eta')^2, the left side of the defining equation."""
    d = eta.derivative()
    return curve.rhs_series() * (d * d) * (curve.c * curve.c)


def _residual(curve, eta, lhs):
    """The residual of the defining equation for eta, given its left side."""
    return lhs - eta.cube() - eta * curve.A - curve.B


def compatibility_check(curve, alpha, beta, psi):
    """Inspect psi, the residual of alpha + beta in the defining equation,
    and report whether gamma can exist. When the linear relation holds and
    B != 0, psi lies in K[[X]] with all exponents divisible by three; for
    B = 0 it may carry a principal part down to X^-3.

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
    """The gamma part: the series in X^3 solving gamma^3 + A gamma = psi,
    known to min(prec, psi.prec).

    gamma is the fixed point of gamma <- (psi - gamma^3) / A, iterated from
    the constant gamma0 (a root of t^3 + A t = psi(0)) on whole columns:
    one cube, one subtraction and one scaling per pass. gamma lies in
    K[[X^3]], so gamma0 is gamma known mod X^3; a gamma known mod X^m has
    its cube known mod X^3m, so each pass triples the precision (the cube's
    precision rule) and computes only the coefficients it determines, until
    psi's precision is reached. The result is substituted back into
    gamma^3 + A gamma and compared with psi before returning.
    """
    if not (in_residue_class(psi, 0) and (psi.is_zero or psi.val >= 0)):
        raise NonRegularPsi(
            "psi must be a power series with exponents divisible by three"
        )
    if gamma0.frobenius() + A * gamma0 != psi.coefficient(0):
        raise BadInitial("gamma0 does not solve t^3 + A t = psi(0)")
    psi = psi.truncate(prec)
    if psi.prec == INF:
        raise ValueError("gamma needs a finite precision")
    a_inv = A.inverse()
    gamma = LaurentSeries.constant(A.field, gamma0, min(3, psi.prec))
    while gamma.prec < psi.prec:
        gamma = (psi - gamma.cube()) * a_inv
    _require((gamma.cube() + gamma * A).agrees_with(psi),
             "gamma fixed point failed substitution check")
    return gamma


class FunctionalEquationReport(Record):
    # checked_prec is an int or INF; the first bad term is None when ok
    __slots__ = ("ok", "checked_prec", "first_bad_exponent", "first_bad_coefficient")


def verify_functional_equation(curve, eta, prec=None):
    """Residual of the defining equation for a candidate x-part.

    Computes r = c^2 (X^3+AX+B) (eta')^2 - eta^3 - A eta - B to the
    achievable precision (optionally capped) and reports whether it
    vanishes, with the first offending term otherwise.
    """
    if not eta.is_zero and eta.val < -1:
        raise ValueError("eta must have a pole of order at most one")
    r = _residual(curve, eta, _lhs(curve, eta)).truncate(INF if prec is None else prec)
    if r.is_zero:
        return FunctionalEquationReport(True, r.prec, None, None)
    return FunctionalEquationReport(False, r.prec, r.val, r.coefficient(r.val))


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
    # eta = alpha + beta + gamma has the derivative of alpha + beta, so one
    # left side serves psi and the check of eta, which cubes eta itself.
    ab = alpha + beta
    lhs = _lhs(curve, ab)
    psi = _residual(curve, ab, lhs)
    report = compatibility_check(curve, alpha, beta, psi)
    if not report.principal_part_ok:
        raise IncompatibleSeed("psi has coefficients off the regular residue-zero grid",
                               report)
    if not report.gamma0_roots:
        raise IncompatibleSeed(f"t^3 + A t = {report.psi0} has no root in the base field",
                               report)
    # All roots share the gamma tail (gamma + kappa solves the cubic when
    # kappa^3 + A kappa = 0), and residual(eta + kappa) = residual(eta) -
    # (kappa^3 + A kappa): one substitution plus a kernel check per root
    # verifies every solution.
    gamma0 = report.gamma0_roots[0]
    eta = ab + solve_gamma(curve.A, psi, gamma0, wp)
    _require(_residual(curve, eta, lhs).is_zero,
             "constructed eta fails its defining equation")
    p, q, r = _linear_relation(curve)
    _require((p * alpha + q * beta - r).is_zero, "alpha and beta fail the linear relation")
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
