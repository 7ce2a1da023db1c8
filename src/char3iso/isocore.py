"""Construction of separable formal endomorphisms of y^2 = x^3 + A x + B
over fields of characteristic three.

The x-part eta of such a map satisfies

    c^2 (X^3 + A X + B) (eta')^2 = eta^3 + A eta + B

as a Laurent series with at most a simple pole. Splitting eta by exponent
residue mod 3 into alpha (= 1), beta (= 2) and gamma (= 0) parts turns the
equation into three tractable pieces:

  * a linear relation  c^2 A X alpha + c^2 (X^3 + B) beta = A X^2  that
    determines either of alpha/beta from the other;
  * a regularity condition on psi, the residual of alpha + beta in the
    equation (gamma' = 0 and cubing is additive, so eta' = (alpha -
    beta)/X): psi must have no pole, and t^3 + A t = psi(0) a root in the
    field;
  * the additive-cubic equation gamma^3 + A gamma = psi, solved as the
    fixed point of gamma <- (psi - gamma^3) / A on whole coefficient
    columns, from a constant term gamma(0) with gamma(0)^3 + A gamma(0) =
    psi(0) in the base field; each pass triples the precision gamma is known to.

A seed a/s is a s^2 / s^3, over a denominator in K[X^3], so the first two
pieces are exact: alpha + beta = n/q and psi = N/q^3 for polynomials made
by unreduced products (no gcd), with q in K[X^3] (see _exact_parts). psi
lies in K((X^3)), and has no pole exactly when val N >= 3 val q. Only
gamma needs a series: n/q and psi are expanded to the requested precision
and no further.

construct() runs the whole pipeline once and returns one endomorphism per
admissible constant term: the first, verified, and its kernel translates.

verify_functional_equation() decides the equation for a rational x-part
eta = P/Q in K(x): multiplied through by Q^4 it is one identity between
polynomials, so its verdict, and the first bad term when it fails, need
no precision.
"""

from __future__ import annotations

from .errors import (
    BadInitial,
    IncompatibleSeed,
    InvalidCurveParameters,
    NonRegularPsi,
    SeedError,
    VerificationFailed,
)
from .gf3field import solve_additive_cubic
from .ratrec import RationalFunction
from .record import Record
from .series import INF, LaurentSeries, decimated, in_residue_class, spread


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

    The series data is kept as an exact rational function, which construct
    reads as polynomials and expands only as far as it is asked; a
    polynomial seed, an exact power series, is the rational function with
    denominator one.
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

    def fraction(self):
        """The seed a/s as (a s^2, s^3), over a denominator in K[X^3],
        checked exactly for this seed kind.

        alpha seeds live at exponents = 1 (mod 3) with valuation >= 1;
        beta seeds at exponents = 2 (mod 3) with a pole of order at most
        one. The zero series is a valid seed of either kind. As s^3 lies in
        K[X^3], a/s has the exponent residues of a s^2; its valuation is
        val a - val s.
        """
        a, s = self.source.num, self.source.den
        num = a * (s * s)
        residue, lowest, low = ((1, 1, "must have valuation >= 1") if self.kind == "alpha"
                                else (2, -1, "may have a pole of order at most one"))
        if not in_residue_class(num, residue):
            raise SeedError(f"{self.kind} seed has exponents not = {residue} (mod 3)")
        if not a.is_zero and a.val - s.val < lowest:
            raise SeedError(f"{self.kind} seed {low}")
        return num, s.cube()


def _as_rational(source):
    if isinstance(source, RationalFunction):
        return source
    if (isinstance(source, LaurentSeries) and source.prec == INF
            and (source.val is None or source.val >= 0)):  # an exact polynomial
        return RationalFunction.from_polynomial(source)
    raise SeedError("seed source must be a RationalFunction or an exact power series")


class CompatReport(Record):
    """Diagnostics gathered while checking whether a seed admits solutions.

    principal_part_ok requires psi to have no pole (psi lies in K((X^3))
    whatever the seed); when it holds, gamma0_roots lists every solution of
    t^3 + A t = psi(0) in the field.
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
    # the first bad term is None when ok
    __slots__ = ("ok", "first_bad_exponent", "first_bad_coefficient")


def verify_functional_equation(curve, eta):
    """Decide the defining equation for the rational x-part eta = P/Q.

    Multiplied through by Q^4 the equation is R = 0 for the polynomial
    R = c^2 (X^3+AX+B) W^2 - Q P^3 - Q^3 (A P + B Q), W = P'Q - PQ',
    made by unreduced products, with no series and no gcd. The residual
    is R/Q^4, so when R != 0 its first term lies at val R - 4 val Q with
    coefficient lowest(R) / lowest(Q)^4.
    """
    P, Q = eta.num, eta.den
    if not P.is_zero and P.val - Q.val < -1:
        raise ValueError("eta must have a pole of order at most one")
    W = P.derivative() * Q - P * Q.derivative()
    Q3 = Q * Q * Q
    R = (curve.rhs_series() * (W * W) * (curve.c * curve.c)
         - Q * P.cube() - Q3 * (P * curve.A + Q * curve.B))
    if R.is_zero:
        return FunctionalEquationReport(True, None, None)
    return FunctionalEquationReport(False, R.val - 4 * Q.val,
                                    R.coefficient(R.val) / Q.coefficient(Q.val) ** 4)


def construct(curve, seed, prec):
    """Run the full pipeline for a seed and return all solutions.

    Builds alpha + beta = n/q and psi = N/q^3 exactly from the seed, gates
    on the compatibility report, then solves for gamma from the first
    admissible constant term and shifts the result by each other root's
    difference from it. Results are ordered by the constant term's
    coefficient vector; each one's prec is the precision its eta is known
    to, which is `prec`: n/q and psi are expanded to `prec`, and gamma is
    known as far as psi.

    Raises IncompatibleSeed when a beta seed has no alpha part, when psi
    has a pole or when the additive cubic has no root in the base field,
    and VerificationFailed when a self-check fails.
    """
    return construct_with_report(curve, seed, prec)[1]


def construct_with_report(curve, seed, prec):
    """Like construct but also returns the compatibility diagnostics."""
    if prec < 16:
        raise ValueError("prec must be at least 16")
    A = curve.A
    n, q, N = _exact_parts(curve, seed)
    # psi = N/q^3 with N and q^3 in K[X^3]: P(X^3) = N and Q(X^3) = q^3
    _require(in_residue_class(N, 0), "psi has exponents not divisible by three")
    P, Q = decimated(N), decimated(q.cube())
    psi = spread(P.divide(Q, prec=-(-prec // 3)))
    ab = n.divide(q, prec=prec)
    psi0 = psi.coefficient(0)
    ok = N.is_zero or N.val >= 3 * q.val
    report = CompatReport(psi0=psi0, principal_part_ok=ok,
                          gamma0_roots=solve_additive_cubic(A, psi0) if ok else (),
                          beta_minus1=ab.coefficient(-1), alpha1=ab.coefficient(1))
    if not report.principal_part_ok:
        raise IncompatibleSeed("psi has coefficients off the regular residue-zero grid",
                               report)
    if not report.gamma0_roots:
        raise IncompatibleSeed(f"t^3 + A t = {report.psi0} has no root in the base field",
                               report)
    # All roots share the gamma tail (gamma + kappa solves the cubic when
    # kappa^3 + A kappa = 0): one check of gamma against N, q^3 (gamma^3 +
    # A gamma) = N on every known coefficient, plus a kernel check per root
    # verifies every solution.
    gamma0 = report.gamma0_roots[0]
    gamma = solve_gamma(A, psi, gamma0, prec)
    _require((Q * decimated(gamma.cube() + gamma * A)).agrees_with(P),
             "constructed eta fails its defining equation")
    eta = ab + gamma
    results = []
    for root in report.gamma0_roots:
        kappa = root - gamma0
        _require((kappa.frobenius() + A * kappa).is_zero,
                 "roots of the additive cubic differ outside its kernel")
        results.append(FormalEndomorphism(curve, eta + kappa, root, eta.prec))
    return report, results


def _exact_parts(curve, seed):
    """(n, q, N) with alpha + beta = n/q and psi = N/q^3, q in K[X^3], from
    the seed a/s with s in K[X^3] that Seed.fraction gives.

    The linear relation reads p alpha + m beta = A X^2 for p = c^2 A X and
    m = c^2 (X^3+B). An alpha seed has q = m s, its part m a / q and the
    partner's (A X^2 s - p a) / q; a beta seed has q = c^2 A X^3 s, its part
    c^2 A X^3 a / q and the partner's X^2 (A X^2 s - m a) / q, and raises
    IncompatibleSeed if that would need a term below X^1. q' = 0, so eta' =
    n'/q and N = q (c^2 (X^3+AX+B) n'^2 - q (A n + B q)) - n^3.
    """
    A, B, c2 = curve.A, curve.B, curve.c * curve.c
    a, s = seed.fraction()
    p = LaurentSeries.monomial(curve.field, 1, c2 * A)
    m = LaurentSeries.from_terms(curve.field, {0: c2 * B, 3: c2})
    if seed.kind == "alpha":
        q, alpha_q, beta_q = m * s, m * a, s.shift(2) * A - p * a
    else:
        rest = s.shift(2) * A - m * a  # alpha = rest / (c^2 A X s)
        if not rest.is_zero and rest.val - s.val < 1:
            raise IncompatibleSeed("beta seed leaves a term below X^1; no alpha part exists")
        q, alpha_q, beta_q = s.shift(3) * (c2 * A), rest.shift(2), a.shift(3) * (c2 * A)
    _require(p * alpha_q + m * beta_q == q.shift(2) * A, "alpha and beta fail the linear relation")
    n = alpha_q + beta_q
    d = n.derivative()
    return n, q, q * (curve.rhs_series() * (d * d) * c2 - q * (n * A + q * B)) - n.cube()


def _require(condition, message):
    """A self-check that stays on under python -O."""
    if not condition:
        raise VerificationFailed(message)
