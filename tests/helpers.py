"""Shared generators and independent oracles for the test suite.

The oracles here deliberately reimplement arithmetic from scratch (plain
int lists mod 3) so they cannot share a bug with the library code paths
they are checking.
"""

import itertools
from dataclasses import dataclass

from char3iso import (
    IncompatibleSeed,
    LaurentSeries,
    Polynomial,
    RationalFunction,
    solve_gamma,
    verify_functional_equation,
)
from char3iso.isocore import (
    GUARD_PRECISION,
    alpha_from_beta,
    beta_from_alpha,
    compatibility_check,
    compute_psi,
)


def random_series(rng, field, val_lo=-6, val_hi=6, max_len=12, prec_extra=4):
    """A random Laurent series with valuation in [val_lo, val_hi]."""
    val = rng.randint(val_lo, val_hi)
    length = rng.randint(1, max_len)
    coeffs = [rng.randrange(3) for _ in range(length)]
    prec = val + length + rng.randint(0, prec_extra)
    return LaurentSeries.from_coeffs(field, val, coeffs, prec)


def random_polynomial(rng, field, max_deg=5, nonzero=False):
    while True:
        coeffs = []
        for _ in range(rng.randint(1, max_deg + 1)):
            if field.degree == 1:
                coeffs.append(rng.randrange(3))
            else:
                coeffs.append(field.element(
                    [rng.randrange(3) for _ in range(field.degree)]))
        p = Polynomial(field, coeffs)
        if not (nonzero and p.is_zero):
            return p


def random_rational(rng, field, max_deg=5):
    """A random rational function whose denominator does not vanish at 0."""
    num = random_polynomial(rng, field, max_deg, nonzero=True)
    while True:
        den = random_polynomial(rng, field, max_deg, nonzero=True)
        if not den.eval(field.zero).is_zero:
            return RationalFunction(num, den)


# ---- independent GF(3^k) oracle (int-tuple polynomial remaindering) -----

def oracle_add(a, b):
    return tuple((x + y) % 3 for x, y in zip(a, b))


def oracle_mul(a, b, modulus):
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = (conv[i + j] + x * y) % 3
    # reduce modulo the (monic) modulus, highest degree first
    for d in range(2 * k - 2, k - 1, -1):
        c = conv[d]
        if c:
            conv[d] = 0
            for i, m in enumerate(modulus[:-1]):
                conv[d - k + i] = (conv[d - k + i] - c * m) % 3
    return tuple(conv[:k])


# ---- independent series long-division oracle ----------------------------

def oracle_expand(num_ints, den_ints, prec):
    """Expansion of num/den over F3 as {exponent: int}, both polynomials
    given as int coefficient lists (lowest degree first)."""
    num = list(num_ints)
    den = list(den_ints)
    nval = next(i for i, c in enumerate(num) if c % 3)
    dval = next(i for i, c in enumerate(den) if c % 3)
    num = num[nval:]
    den = den[dval:]
    inv = 1 if den[0] % 3 == 1 else 2
    out = {}
    n_terms = prec - (nval - dval)
    rem = [c % 3 for c in num] + [0] * max(0, n_terms - len(num))
    for j in range(max(0, n_terms)):
        q = (rem[j] * inv) % 3
        if q:
            out[nval - dval + j] = q
        for i, d in enumerate(den):
            if j + i < len(rem):
                rem[j + i] = (rem[j + i] - q * d) % 3
    return out


# ---- trial-factorization irreducibility oracle ---------------------------

def _remainder_f3(a, b):
    """a mod b over F3, both int lists lowest degree first, b monic."""
    r = [x % 3 for x in a]
    for d in range(len(r) - len(b), -1, -1):
        c = r[d + len(b) - 1]
        if c:
            for i, y in enumerate(b):
                r[d + i] = (r[d + i] - c * y) % 3
    return r[:len(b) - 1]


def is_irreducible_trial(poly):
    """A monic polynomial over F3 (int list, lowest degree first) is
    irreducible when no monic polynomial of degree 1 .. deg/2 divides it."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for tail in itertools.product(range(3), repeat=d):
            if not any(_remainder_f3(poly, list(tail) + [1])):
                return False
    return True


# ---- the two defining relations, evaluated term by term ------------------

@dataclass(frozen=True)
class CubicMembershipReport:
    """Residuals of the two defining relations of the solution triple."""

    linear_ok: bool
    cubic_ok: bool
    linear_residual: LaurentSeries
    cubic_residual: LaurentSeries

    @property
    def ok(self):
        return self.linear_ok and self.cubic_ok


def check_cubic_membership(curve, alpha, beta, gamma):
    """Evaluate both relations the (alpha, beta, gamma) triple must satisfy:

        c^2 A X alpha + c^2 (X^3 + B) beta = A X^2
        c^2 (X^3+AX+B) ((alpha-beta)/X)^2 = eta^3 + A eta + B,  eta = alpha+beta+gamma

    and report the residual series of each.
    """
    c2 = curve.c * curve.c
    x = LaurentSeries.monomial(curve.field, 1)
    x2 = LaurentSeries.monomial(curve.field, 2)
    x3_plus_b = LaurentSeries.from_terms(curve.field, {0: curve.B, 3: 1})
    r1 = x * alpha * (c2 * curve.A) + x3_plus_b * beta * c2 - x2 * curve.A
    eta = alpha + beta + gamma
    diff = (alpha - beta).shift(-1)
    r2 = (curve.rhs_series() * (diff * diff) * c2
          - eta.cube() - eta * curve.A - curve.B)
    return CubicMembershipReport(
        linear_ok=r1.is_zero,
        cubic_ok=r2.is_zero,
        linear_residual=r1,
        cubic_residual=r2,
    )


def construct_per_root(curve, seed, prec):
    """The pipeline run separately for every root of t^3 + A t = psi(0):
    gamma solved from each root, and each eta checked by full substitution
    and by check_cubic_membership. Returns the (gamma0, eta) pairs, or
    raises IncompatibleSeed like construct."""
    wp = prec + GUARD_PRECISION
    if seed.kind == "alpha":
        alpha = seed.expand(wp)
        beta = beta_from_alpha(curve, alpha)
    else:
        beta = seed.expand(wp)
        alpha = alpha_from_beta(curve, beta)
    psi = compute_psi(curve, alpha, beta)
    report = compatibility_check(curve, psi)
    if not (report.principal_part_ok and report.gamma0_roots):
        raise IncompatibleSeed("no solution", report)
    out = []
    for gamma0 in report.gamma0_roots:
        gamma = solve_gamma(curve.A, psi, gamma0, wp)
        eta = alpha + beta + gamma
        assert verify_functional_equation(curve, eta).ok
        assert check_cubic_membership(curve, alpha, beta, gamma).ok
        out.append((gamma0, eta.truncate(prec)))
    return out
