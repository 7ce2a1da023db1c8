"""Shared generators and independent oracles for the test suite.

The oracles here deliberately reimplement arithmetic from scratch (plain
int lists mod 3) so they cannot share a bug with the library code paths
they are checking. The schoolbook run oracles, and the Euclid and Pade
loops built on them, work on lists of FieldElements (runs, lowest degree
first) with FieldElement arithmetic, which is itself checked against
oracle_mul; they share no code with the polynomial functions of ratrec
or with the kernel. The chord-tangent law on Points of FieldElements
(on_curve, p_add, ...) is the reference for the group law on Zech
logarithms that char3iso.curve runs, points_from_logs reads that law's
points back as Points, and apply_map evaluates a
RationalFunction at a point by Horner's rule (rational_eval). The series
pipeline (the partner part by series division, psi as the series residual
of alpha + beta, construct_per_root) is the oracle for construct's exact
n/q and N/q^4. The defining equation on series (expand, series_residual,
verify_series) checks constructed etas, which are series, and is the
oracle for the exact verdict of verify_functional_equation.
parse_polynomial, poly_rem and poly_divmod are thin test entry points
over the calls the library makes.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from char3iso import (
    FieldElement,
    IncompatibleSeed,
    LaurentSeries,
    ParseError,
    PointNotOnCurve,
    PrecisionError,
    RationalFunction,
    parse_rational_function,
)
from char3iso.curve import _enumerate, _log_curve
from char3iso.gf3field import solve_additive_cubic
from char3iso.isocore import CompatReport, solve_gamma
from char3iso import kronecker
from char3iso.gf3field import _from_packed
from char3iso.ratrec import _padded, coefficients, degree
from char3iso.record import Record
from char3iso.series import INF, _series, in_residue_class


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
        p = LaurentSeries.from_coeffs(field, 0, coeffs)
        if not (nonzero and p.is_zero):
            return p


def random_rational(rng, field, max_deg=5):
    """A random rational function whose denominator does not vanish at 0."""
    num = random_polynomial(rng, field, max_deg, nonzero=True)
    while True:
        den = random_polynomial(rng, field, max_deg, nonzero=True)
        if not den.coefficient(0).is_zero:
            return RationalFunction(num, den)


def rational_x(field):
    """The RationalFunction x, made with no gcd and no inverse."""
    return RationalFunction.from_polynomial(LaurentSeries.monomial(field, 1))


# Dense irreducible moduli, low coefficient first, found by Rabin's test in
# FieldParams among seeded random polynomials with every coefficient nonzero.
# Single-byte digit slots hold a product (up to 4k per slot) only to k = 63.
BOUNDARY_MODULI = {
    63: "1122122111222112111111221121111122121111221112222121121222112211",
    64: "21122212222212222112211112222122122211212222121111211111212112221",
    65: "221112221122221222211222121121121121112212121212221111221222211121",
}


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


# ---- schoolbook coefficient-run oracles for char3iso.kronecker -------------

def pack(field, run):
    """A run of FieldElements as the kernel's columns: k bytes objects,
    column j the t^j digit of every coefficient."""
    return [bytes(c.coeffs[j] for c in run) for j in range(field.degree)]


def unpack(field, cols):
    """The run of FieldElements held in the kernel's columns."""
    return [field.element([col[i] for col in cols]) for i in range(len(cols[0]))]


def trim(run):
    """The run without trailing zeros, as a new list."""
    run = list(run)
    while run and run[-1].is_zero:
        run.pop()
    return run


def run_sub(a, b):
    """a - b for runs, trimmed."""
    n = max(len(a), len(b))
    if not n:
        return []
    zero = (a or b)[0].field.zero
    a, b = list(a) + [zero] * (n - len(a)), list(b) + [zero] * (n - len(b))
    return trim(x - y for x, y in zip(a, b))


def schoolbook_mul(a, b, n=None):
    """Product of FieldElement runs (lowest degree first), cut to its first
    n coefficients when n is given, one coefficient pair at a time."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else min(n, full)
    out = [a[0].field.zero] * max(0, n)
    for i, x in enumerate(a[:n]):
        if x.is_zero:
            continue
        for j, y in enumerate(b[:n - i]):
            if not y.is_zero:
                out[i + j] = out[i + j] + x * y
    return out


def schoolbook_inverse(b, n):
    """First n coefficients of 1/b by series long division; b[0] != 0."""
    field = b[0].field
    lead_inv = b[0].inverse()
    q = []
    for j in range(n):
        acc = field.one if j == 0 else field.zero
        for i, qi in enumerate(q):
            if j - i < len(b):
                acc = acc - qi * b[j - i]
        q.append(acc * lead_inv)
    return q


def schoolbook_divmod(a, b):
    """Polynomial long division of runs from the top; b[-1] != 0. The
    remainder has no trailing zeros."""
    field = b[0].field
    lead_inv = b[-1].inverse()
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        while r and r[-1].is_zero:
            r.pop()
        if len(r) < len(b):
            break
        d = len(r) - len(b)
        c = r[-1] * lead_inv
        q[d] = c
        for i, bc in enumerate(b):
            r[i + d] = r[i + d] - c * bc
    while r and r[-1].is_zero:
        r.pop()
    return q, r


# ---- element-loop series oracles for the column form of char3iso.series ----
# LaurentSeries keeps its run as bytes columns; these take the run as
# FieldElements (s.coeffs) and work one coefficient at a time.

def elementwise_coefficient(s, exponent):
    if exponent >= s.prec:
        raise PrecisionError(f"coefficient at X^{exponent} unknown (prec {s.prec})")
    run = s.coeffs
    i = exponent - s.val if run else -1
    return run[i] if 0 <= i < len(run) else s.field.zero


def elementwise_add(a, b, subtract=False):
    """a + b, or a - b, on the runs aligned below the common precision."""
    prec = min(a.prec, b.prec)
    present = [s for s in (a, b) if s.coeffs]
    lo = min((s.val for s in present), default=0)
    hi = min(max((s.val + len(s.coeffs) for s in present), default=0), prec)
    if hi <= lo:
        return LaurentSeries.zero(a.field, prec)
    run = [a.field.zero] * (hi - lo)
    for s, negate in ((a, False), (b, subtract)):
        for j, c in enumerate(s.coeffs, s.val - lo if s.coeffs else 0):
            if j < hi - lo:
                run[j] = run[j] - c if negate else run[j] + c
    return LaurentSeries(a.field, lo, run, prec)


def elementwise_neg(s):
    return LaurentSeries(s.field, s.val, [-c for c in s.coeffs], s.prec)


def elementwise_derivative(s):
    if not s.coeffs:
        return LaurentSeries.zero(s.field, s.prec - 1)
    run = [c * ((s.val + i) % 3) for i, c in enumerate(s.coeffs)]
    return LaurentSeries(s.field, s.val - 1, run, s.prec - 1)


def elementwise_cube(s):
    if not s.coeffs:
        return LaurentSeries.zero(s.field, 3 * s.prec)
    run = [s.field.zero] * (3 * (len(s.coeffs) - 1) + 1)
    for i, c in enumerate(s.coeffs):
        run[3 * i] = c.frobenius()
    return LaurentSeries(s.field, 3 * s.val, run, 3 * s.prec)


def elementwise_in_residue_class(s, residue):
    return all(e % 3 == residue for e, c in enumerate(s.coeffs, s.val or 0) if c)


def gamma_by_recurrence(A, psi, gamma0, prec):
    """gamma^3 + A gamma = psi solved one coefficient at a time, known to
    min(prec, psi.prec). With psi = sum C_n X^(3n) and gamma = sum g_n X^(3n),
    the Frobenius expansion gamma^3 = sum g_n^3 X^(9n) gives

        g_0  = gamma0,   g_n = C_n / A (3 does not divide n),
        g_3l = (C_3l - g_l^3) / A."""
    top = min(prec, psi.prec)
    run = psi.coeffs
    a_inv = A.inverse()
    g = [gamma0]
    for n in range(1, (top + 2) // 3):  # the n with 3n < top
        i = 3 * n - psi.val if run else -1
        c = run[i] if 0 <= i < len(run) else A.field.zero
        g.append((c - g[n // 3].frobenius() if n % 3 == 0 else c) * a_inv)
    return LaurentSeries.from_terms(A.field, {3 * n: x for n, x in enumerate(g)}, top)


# ---- Pade that normalises every candidate before certifying it -------------

def pade_normalising_first(series, deg_num_max, deg_den_max):
    """Pade by the normalise-first procedure, on runs: the Euclid candidate
    is reduced by its gcd, checked against the degree bounds and the pole
    at 0, and only then re-expanded by schoolbook loops. Returns None or
    (num, den) in lowest terms with den monic; ratrec.pade, which
    certifies first, must give the same answer."""
    field = series.field
    zero, one = field.zero, field.one
    if series.is_zero:
        return [], [one]
    shifted = series.val < 0
    t = series.shift(1) if shifted else series
    dn = deg_num_max
    dd = deg_den_max - 1 if shifted else deg_den_max
    if dd < 0:
        return None
    order = dn + dd + 1
    if t.prec != INF:
        order = min(order, int(t.prec))
    r_prev = [zero] * order + [one]
    r_cur = trim(t.coefficient(e) for e in range(order))
    u_prev, u_cur = [], [one]
    while len(r_cur) - 1 > dn:
        q, rem = schoolbook_divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, run_sub(u_prev, schoolbook_mul(q, u_cur))
    if not u_cur:
        return None
    if not r_cur:
        num, den = [], [one]
    else:
        g = poly_extended_euclid(r_cur, u_cur)[0]
        num, den = schoolbook_divmod(r_cur, g)[0], schoolbook_divmod(u_cur, g)[0]
        lead_inv = den[-1].inverse()
        num, den = [c * lead_inv for c in num], [c * lead_inv for c in den]
    if den[0].is_zero:
        return None
    if len(num) - 1 > dn or len(den) - 1 > dd:
        return None
    if shifted:  # divide by X, cancelling an X of the numerator
        num, den = (num[1:], den) if num and num[0].is_zero else (num, [zero] + den)
    if series.prec == INF:
        check_prec = series.val + len(series.coeffs) + deg_num_max + deg_den_max + 2
    else:
        check_prec = series.prec
    # num/den = X^-v num / den[v:]; its coefficient at X^e is run[e + v]
    v = 1 if den[0].is_zero else 0
    n = check_prec + v
    run = schoolbook_mul(num, schoolbook_inverse(den[v:], n), n) if num else []
    run += [zero] * (n - len(run))
    if any((run[e + v] if e + v >= 0 else zero) != series.coefficient(e)
           for e in range(-1, check_prec)):
        return None
    return num, den


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


# ---- the reference group law on Points of FieldElements --------------------
# The chord-tangent law written with FieldElement arithmetic, the oracle
# that the log layer of char3iso.curve (_add, _enumerate, check_map) is
# compared against.

class Point(Record):
    """A point of the curve: affine (x, y) of FieldElements or the point at infinity."""

    __slots__ = ("x", "y")
    _defaults = {"x": None, "y": None}

    @classmethod
    def infinity(cls):
        return cls(None, None)

    @property
    def is_infinity(self):
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


def points_from_logs(field, logs, points):
    """Points of char3iso.curve's log group law (pairs of logs, None for
    zero and for infinity) as Points of FieldElements."""
    def element(i):
        return field.zero if i is None else _from_packed(field, logs.exp[i])

    return tuple(Point.infinity() if p is None else Point(*map(element, p)) for p in points)


def on_curve(curve, point):
    x, y = point.x, point.y
    return point.is_infinity or y * y == (x * x + curve.A) * x + curve.B


def _require_on_curve(curve, point):
    if not on_curve(curve, point):
        raise PointNotOnCurve(f"{point!r} fails the curve equation")


def p_neg(curve, point):
    _require_on_curve(curve, point)
    return point if point.is_infinity else Point(point.x, -point.y)


def p_double(curve, point):
    """Tangent doubling; in characteristic three the slope is -A/y
    because the 3x^2 term of the derivative vanishes."""
    _require_on_curve(curve, point)
    if point.is_infinity or point.y.is_zero:
        return Point.infinity()
    lam = -curve.A / point.y
    x3 = lam * lam + point.x  # lambda^2 - 2x = lambda^2 + x mod 3
    return Point(x3, lam * (point.x - x3) - point.y)


def p_add(curve, p, q):
    """Chord-tangent addition of points checked to be on the curve."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    if p.is_infinity or q.is_infinity:
        return q if p.is_infinity else p
    if p.x == q.x:
        return Point.infinity() if p.y == -q.y else p_double(curve, p)
    lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    return Point(x3, lam * (p.x - x3) - p.y)


def enumerate_points(curve):
    """The library's enumeration as Points: infinity first, then affine
    points with x in field.elements() order and, for each x, the root that
    comes first in that order before its negative."""
    logs, _, cubic = _log_curve(curve)
    return list(points_from_logs(curve.field, logs, _enumerate(logs, cubic)))


def horner(p, x):
    """The polynomial p at x, by Horner's rule."""
    acc = p.field.zero
    for c in reversed(coefficients(p)):
        acc = acc * x + c
    return acc


def rational_eval(rf, x):
    """The RationalFunction rf at x, or None at a pole."""
    d = horner(rf.den, x)
    return None if d.is_zero else horner(rf.num, x) / d


def apply_map(curve, fx, fy_factor, point):
    """Apply (x, y) -> (fx(x), y * fy_factor(x)) to a point.

    A pole of either coordinate function marks a kernel point and maps to
    infinity; infinity maps to infinity. The caller decides whether the
    image has to lie on the curve.
    """
    if point.is_infinity:
        return point
    image_x, factor = rational_eval(fx, point.x), rational_eval(fy_factor, point.x)
    if image_x is None or factor is None:
        return Point.infinity()
    return Point(image_x, point.y * factor)


# ---- square roots and point enumeration by Tonelli-Shanks ----------------

def sqrt(a):
    """A square root of a, or None if a is a non-square.

    Tonelli-Shanks on the multiplicative group; works for every odd 3^k.
    Between the two roots the one with the smaller coefficient vector is
    returned, so the choice is deterministic.
    """
    field = a.field
    if a.is_zero:
        return a
    q = field.order
    if a ** ((q - 1) // 2) != field.one:
        return None
    m = q - 1
    s = 0
    while m % 2 == 0:
        m //= 2
        s += 1
    nonresidue = None
    for z in field.elements():
        if not z.is_zero and z ** ((q - 1) // 2) != field.one:
            nonresidue = z
            break
    c = nonresidue ** m
    t = a ** m
    r = a ** ((m + 1) // 2)
    big = s
    while t != field.one:
        t2 = t
        i = 0
        while t2 != field.one:
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (big - i - 1))
        big = i
        c = b * b
        t = t * c
        r = r * b
    return min(r, -r, key=lambda e: e.coeffs)


def enumerate_points_by_sqrt(curve):
    """The rational points in enumerate_points order, one sqrt per x."""
    points = [Point.infinity()]
    for x in curve.field.elements():
        root = sqrt(x * x * x + curve.A * x + curve.B)
        if root is None:
            continue
        ys = sorted({root, -root}, key=lambda e: e.coeffs)
        points.extend(Point(x, y) for y in ys)
    return points


def enumerate_points_by_scan(curve):
    """The rational points in enumerate_points order, testing every
    (x, y) pair against the curve equation."""
    elements = list(curve.field.elements())
    squares = [(y, (y * y).coeffs) for y in elements]
    points = [Point.infinity()]
    for x in elements:
        rhs = (x * x * x + curve.A * x + curve.B).coeffs
        points.extend(Point(x, y) for y, square in squares if square == rhs)
    return points


def scalar_mul(curve, m, point):
    """m * P by double-and-add; negative m through the inverse point."""
    _require_on_curve(curve, point)
    if m < 0:
        return scalar_mul(curve, -m, p_neg(curve, point))
    acc = Point.infinity()
    base = point
    while m:
        if m & 1:
            acc = p_add(curve, acc, base)
        base = p_double(curve, base)
        m >>= 1
    return acc


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
    r2 = psi_by_formula(curve, alpha, beta) - gamma.cube() - gamma * curve.A
    return CubicMembershipReport(
        linear_ok=r1.is_zero,
        cubic_ok=r2.is_zero,
        linear_residual=r1,
        cubic_residual=r2,
    )


def psi_by_formula(curve, alpha, beta):
    """The closed formula on the difference quotient (alpha - beta)/X:

        c^2 (X^3+AX+B) ((alpha-beta)/X)^2 - alpha^3 - beta^3 - A alpha - A beta - B,

    built from series arithmetic alone, with no isocore code."""
    diff = (alpha - beta).shift(-1)
    rhs = LaurentSeries.from_terms(curve.field, {0: curve.B, 1: curve.A, 3: 1})
    return (rhs * (diff * diff) * (curve.c * curve.c) - alpha.cube() - beta.cube()
            - alpha * curve.A - beta * curve.A - curve.B)


# ---- the series pipeline: the oracle for construct's exact n/q and N/q^4 ----

# Extra coefficients for the series pipeline: the squared difference
# quotient loses a place, so it expands the seed to prec + ORACLE_GUARD.
ORACLE_GUARD = 8


def _linear_relation(curve):
    """(p, q, r) = (c^2 A X, c^2 (X^3 + B), A X^2): p alpha + q beta = r."""
    c2 = curve.c * curve.c
    return (LaurentSeries.monomial(curve.field, 1, c2 * curve.A),
            LaurentSeries.from_terms(curve.field, {0: c2 * curve.B, 3: c2}),
            LaurentSeries.monomial(curve.field, 2, curve.A))


def beta_from_alpha(curve, alpha):
    """The beta part determined by alpha through the linear relation, by a
    series division. For B != 0 the divisor is a unit and beta lands in
    X^2 K[[X]]; for B = 0 the division by X^3 may leave a simple pole.
    """
    p, q, r = _linear_relation(curve)
    beta = (r - p * alpha).divide(q)
    assert in_residue_class(beta, 2), "beta left its residue class"
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
    assert in_residue_class(alpha, 1), "alpha left its residue class"
    return alpha


def compatibility_check(curve, alpha, beta, psi):
    """Inspect the series psi, the residual of alpha + beta in the defining
    equation, and report whether gamma can exist: every known coefficient
    of psi at a negative exponent or at an exponent not divisible by three
    must vanish, and t^3 + A t = psi(0) must have a root in the field.
    Failure is encoded in the report, not raised.
    """
    ok = in_residue_class(psi, 0) and (psi.is_zero or psi.val >= 0)
    try:
        psi0 = psi.coefficient(0)
    except PrecisionError:
        raise ValueError("psi carries no constant term at this precision") from None
    roots = solve_additive_cubic(curve.A, psi0) if ok else ()
    return CompatReport(psi0=psi0, principal_part_ok=ok, gamma0_roots=roots,
                        beta_minus1=beta.coefficient(-1), alpha1=alpha.coefficient(1))


def seed_parts(curve, seed, prec):
    """The seed expanded to prec and its partner part by series division,
    as (alpha, beta)."""
    seed.fraction()  # the seed's own checks, which raise SeedError
    series = expand(seed.source, prec)
    if seed.kind == "alpha":
        return series, beta_from_alpha(curve, series)
    return alpha_from_beta(curve, series), series


def construct_per_root(curve, seed, prec):
    """The series pipeline run separately for every root of t^3 + A t =
    psi(0): the seed expanded with guard coefficients, its partner by
    series division, psi by the series residual of alpha + beta, gamma
    solved from each root, and each eta checked by full substitution and
    by check_cubic_membership. Returns the (gamma0, eta) pairs, or raises
    IncompatibleSeed like construct."""
    wp = prec + ORACLE_GUARD
    alpha, beta = seed_parts(curve, seed, wp)
    psi = compute_psi(curve, alpha, beta)
    report = compatibility_check(curve, alpha, beta, psi)
    if not (report.principal_part_ok and report.gamma0_roots):
        raise IncompatibleSeed("no solution", report)
    out = []
    for gamma0 in report.gamma0_roots:
        gamma = solve_gamma(curve.A, psi, gamma0, wp)
        eta = alpha + beta + gamma
        assert verify_series(curve, eta).ok
        assert check_cubic_membership(curve, alpha, beta, gamma).ok
        assert eta.prec >= prec
        out.append((gamma0, eta.truncate(prec)))
    return out


def compute_psi(curve, alpha, beta):
    """psi, the residual of alpha + beta in the defining equation, as a
    series, by the calls verify_series makes:

    psi = c^2 (X^3+AX+B) ((alpha-beta)/X)^2
          - alpha^3 - beta^3 - A alpha - A beta - B.
    """
    return series_residual(curve, alpha + beta)


# ---- the defining equation on series: the oracle for constructed etas ------

def expand(rf, prec):
    """The Laurent expansion of the RationalFunction rf at X = 0, to
    absolute precision prec."""
    return rf.num.divide(rf.den, prec=prec)


def series_residual(curve, eta):
    """c^2 (X^3+AX+B) (eta')^2 - eta^3 - A eta - B for the series eta, to
    the precision series arithmetic gives it."""
    d = eta.derivative()
    lhs = curve.rhs_series() * (d * d) * (curve.c * curve.c)
    return lhs - eta.cube() - eta * curve.A - curve.B


class SeriesReport(NamedTuple):
    """The series residual's verdict: checked_prec is an int or INF, and
    the first bad term is None when ok."""

    ok: bool
    checked_prec: object
    first_bad_exponent: object
    first_bad_coefficient: object


def verify_series(curve, eta, prec=None):
    """The defining equation for a series eta, decided on the coefficients
    of its residual below the achievable precision (optionally capped)."""
    if not eta.is_zero and eta.val < -1:
        raise ValueError("eta must have a pole of order at most one")
    r = series_residual(curve, eta).truncate(INF if prec is None else prec)
    if r.is_zero:
        return SeriesReport(True, r.prec, None, None)
    return SeriesReport(False, r.prec, r.val, r.coefficient(r.val))


# ---- polynomials from text ------------------------------------------------

def parse_polynomial(text, field):
    """Like parse_rational_function but requires denominator one."""
    rf = parse_rational_function(text, field)
    if degree(rf.den) != 0:
        raise ParseError(0, "expected a polynomial, found a quotient")
    return rf.num


def poly_rem(a, b):
    """The polynomial a mod b, by one division of the library's Euclid
    kernel: with no cofactor, it stops once the remainder is below deg b,
    and a zero b raises ZeroDivisionError."""
    n = max(degree(a), degree(b)) + 1
    run = kronecker._euclid(a.field, _padded(a, n), _padded(b, n), n, degree(b) - 1)[1]
    return _series(a.field, 0, run, INF)


def poly_divmod(a, b):
    """Quotient and remainder of the polynomial a by b, by the calls the
    library makes: the Euclid kernel's remainder, then the exact series
    division of a - r by b, which checks itself by one product."""
    r = poly_rem(a, b)
    return (a - r).divide(b), r


# ---- exponent-residue splitting, two ways ---------------------------------

class TriSplit(NamedTuple):
    """The three components of a series by exponent residue mod 3."""

    alpha: LaurentSeries  # exponents = 1 (mod 3)
    beta: LaurentSeries   # exponents = 2 (mod 3)
    gamma: LaurentSeries  # exponents = 0 (mod 3)

    def recombined(self):
        return self.alpha + self.beta + self.gamma


def split(s):
    """Partition a series into its mod-3 exponent components."""
    buckets = {0: {}, 1: {}, 2: {}}
    for e, c in s.nonzero_terms():
        buckets[e % 3][e] = c
    return TriSplit(
        alpha=LaurentSeries.from_terms(s.field, buckets[1], s.prec),
        beta=LaurentSeries.from_terms(s.field, buckets[2], s.prec),
        gamma=LaurentSeries.from_terms(s.field, buckets[0], s.prec),
    )


def split_by_formula(s):
    """Same decomposition computed through derivatives.

    With d = S' and e = S'': alpha = X d - X^2 e, beta = -X^2 e and
    gamma = S - X d - X^2 e. Must agree with split(), which builds the
    parts from nonzero_terms and from_terms instead of the library's
    derivative, shift and subtraction.
    """
    d1 = s.derivative().shift(1)
    d2 = s.derivative().derivative().shift(2)
    return TriSplit(alpha=d1 - d2, beta=-d2, gamma=s - d1 - d2)


class Homogeneity(Enum):
    """Eigenclass of a series under S -> X S'."""

    V0 = "V0"    # S' = 0
    V1 = "V1"    # S' = S / X
    VM1 = "Vm1"  # S' = -S / X
    MIXED = "mixed"


def homogeneity_class(s):
    """Which eigenclass the known coefficients of s lie in."""
    residues = {e % 3 for e, _ in s.nonzero_terms()}
    if len(residues) > 1:
        return Homogeneity.MIXED
    if not residues:
        return Homogeneity.V0
    return (Homogeneity.V0, Homogeneity.V1, Homogeneity.VM1)[residues.pop()]


# ---- extended Euclid over GF(3^k)[x] ---------------------------------------

def poly_extended_euclid(a, b):
    """(g, s, t) with g = s*a + t*b and g the monic gcd, for runs a and b
    (lowest degree first); the results are runs without trailing zeros."""
    a, b = trim(a), trim(b)
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    one = (a or b)[0].field.one
    r0, r1 = a, b
    s0, s1 = [one], []
    t0, t1 = [], [one]
    while r1:
        q, rem = schoolbook_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, run_sub(s0, schoolbook_mul(q, s1))
        t0, t1 = t1, run_sub(t0, schoolbook_mul(q, t1))
    lead_inv = r0[-1].inverse()
    return tuple([c * lead_inv for c in run] for run in (r0, s0, t0))


# ---- the closed-form pole analysis of the B = 0 branch -----------------------

@dataclass(frozen=True)
class ClosedFormConditions:
    """The closed-form compatibility data for the B = 0 branch analysis."""

    beta_minus1: FieldElement
    alpha1: FieldElement
    delta0: FieldElement | None
    pole_cubic_ok: bool   # c^2 A b^2 - b^3 = 0 for b the X^-1 coefficient
    pole_cross_ok: bool   # c^2 (b^2 + A a1 b) - A b = 0
    branch: str           # "beta_zero", "beta_c2A" or "other"


def closed_form_conditions(curve, alpha, beta):
    """Closed-form diagnostics from the leading alpha/beta coefficients.

    Extracts b = [X^-1] beta, a1 = [X^1] alpha and (for B = 0) the constant
    term of alpha/X as delta0, then evaluates the two pole-cancellation
    identities of the B = 0 analysis. b must be 0 or c^2 A for the pole of
    psi to cancel; the branch field records which one holds.
    """
    b = beta.coefficient(-1)
    a1 = alpha.coefficient(1)
    c2 = curve.c * curve.c
    delta0 = a1 if curve.B.is_zero else None
    pole_cubic = c2 * curve.A * b * b - b * b * b
    pole_cross = c2 * (b * b + curve.A * a1 * b) - curve.A * b
    if b.is_zero:
        branch = "beta_zero"
    elif b == c2 * curve.A:
        branch = "beta_c2A"
    else:
        branch = "other"
    return ClosedFormConditions(
        beta_minus1=b,
        alpha1=a1,
        delta0=delta0,
        pole_cubic_ok=pole_cubic.is_zero,
        pole_cross_ok=pole_cross.is_zero,
        branch=branch,
    )


# ---- the homomorphism test on every pair ------------------------------------

def addition_table(add, points):
    """table[i][j] is the index of add(points[i], points[j]) in points,
    which lists the identity first."""
    index = {p: i for i, p in enumerate(points)}
    return [[index[add(p, q)] for q in points] for p in points]


def homomorphism_on_all_pairs(table, images):
    """Whether the map i -> images[i] on the indices of an addition table
    commutes with addition on every pair: the exhaustive test that
    check_map's walk over the cosets of a generating set must agree with."""
    n = len(table)
    return all(images[table[i][j]] == table[images[i]][images[j]]
               for i in range(n) for j in range(n))


def span(table, generators):
    """The indices of the subgroup the generators span, by closure."""
    spanned, frontier = {0}, [0]
    while frontier:
        frontier = {table[p][g] for p in frontier for g in generators} - spanned
        spanned |= frontier
    return spanned
