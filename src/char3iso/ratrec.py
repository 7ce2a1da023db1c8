"""Rational functions over GF(3^k), and the rational reconstruction (Pade
approximation) of series prefixes.

A polynomial is an exact LaurentSeries (prec INF, val >= 0) read as a run
from degree 0; there is no polynomial class. Its run stays in the kernel's
byte columns, so sums, products, division and the Euclid loops of pade and
poly_gcd make no FieldElement; a constant or monomial factor scales the
other run through its matrix over F3 (LaurentSeries._scaled), and a
one-term run by one field product. What only polynomials need is a
function here: degree, leading, coefficients, poly_gcd and poly_text. A
RationalFunction holds two such series, and the library reads them as
polynomials; it never expands one into a series (construct reads a seed's
num and den, verify_functional_equation those of eta). A polynomial or a
constant becomes one over the denominator 1 with no gcd and no inverse, as
1 is monic and coprime to anything, and a power of a monomial raises only
its coefficient, and not at all when that is 1.

Reconstruction runs the kernel's Euclid on X^order and the prefix, each
remainder with its cofactor, so the last remainder comes with the
denominator and no series division is made. The candidate is checked by
one product: den * series must equal num on every known coefficient; an
imperfect match yields None rather than a guess. A match is agreement to
the series' precision, not a proof that the form solves anything; for
the defining equation, isocore.verify_functional_equation is that proof.
"""

from __future__ import annotations

from . import kronecker
from .errors import InsufficientPrecision, MixedFields, ZeroDenominator
from .gf3field import FieldElement
from .series import INF, LaurentSeries, _series


def degree(p):
    """Degree of the polynomial p; -1 for zero."""
    return -1 if p.val is None else p.val + len(p.cols[0]) - 1


def leading(p):
    """The coefficient of p at its degree."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading coefficient")
    return p.coefficient(degree(p))


def coefficients(p):
    """The coefficients of p from degree 0 up, as FieldElements."""
    return () if p.is_zero else (p.field.zero,) * p.val + p.coeffs


def _padded(p, n):
    """The columns of the polynomial p from degree 0, as n-byte bytearrays."""
    return [bytearray(bytes(p.val or 0) + c).ljust(n, b"\0") for c in p.cols]


def poly_gcd(a, b):
    """Monic greatest common divisor; 1 once a remainder is a nonzero constant."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    n = max(degree(a), degree(b)) + 1  # no cofactor: the remainders fill the runs
    a, b = (_series(a.field, 0, run, INF)
            for run in kronecker._euclid(a.field, _padded(a, n), _padded(b, n), n, 0))
    return a * leading(a).inverse() if b.is_zero else _one(b.field)


def poly_text(p):
    """p highest degree first, as in "x^2+(1+t)*x+2"; "0" for zero."""
    parts, names = [], p.field._names
    for i, packed in reversed(list(p._terms())):
        cs = names[packed]
        if i == 0:
            parts.append(f"({cs})" if "+" in cs else cs)
            continue
        xs = "x" if i == 1 else f"x^{i}"
        if cs == "1":
            parts.append(xs)
        elif "+" in cs or "*" in cs:
            parts.append(f"({cs})*{xs}")
        else:
            parts.append(f"{cs}*{xs}")
    return "+".join(parts) or "0"


def _one(field):
    return LaurentSeries.monomial(field, 0)


def _power(p, n):
    """p^n for n >= 0, by repeated squaring; c X^k to the n is c^n X^(kn)."""
    if len(p.cols[0]) == 1:
        c = p.coefficient(p.val)
        return LaurentSeries.monomial(p.field, p.val * n, c if c == 1 else c ** n)
    result = _one(p.field)
    while n:
        if n & 1:
            result = result * p
        n >>= 1
        if n:
            p = p * p
    return result


class RationalFunction:
    """Quotient of polynomials kept in lowest terms with a monic denominator.

    num and den are exact series with val >= 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.field != den.field:
            raise MixedFields("numerator and denominator over different fields")
        if num.is_zero:
            den = _one(num.field)
        else:
            if degree(den) > 0:
                g = poly_gcd(num, den)
                if degree(g) > 0:  # exact divisions, which raise on a remainder
                    num, den = num.divide(g), den.divide(g)
            lead_inv = leading(den).inverse()
            num, den = num * lead_inv, den * lead_inv
        self._set(num, den)

    def _set(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _lowest_terms(cls, num, den):
        """num/den from a pair already coprime with den monic."""
        rf = object.__new__(cls)
        rf._set(num, _one(num.field) if num.is_zero else den)
        return rf

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_polynomial(cls, p):
        return cls._lowest_terms(p, _one(p.field))

    @classmethod
    def constant(cls, field, value):
        return cls._lowest_terms(LaurentSeries.constant(field, value), _one(field))

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self):
        return self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise MixedFields("rational functions over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return RationalFunction.constant(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if degree(other.den) == 0 or degree(self.den) == 0:
            # P/Q + p = (P + pQ)/Q, and gcd(P + pQ, Q) = gcd(P, Q) = 1
            frac, poly = (self, other) if degree(other.den) == 0 else (other, self)
            return RationalFunction._lowest_terms(frac.num + poly.num * frac.den, frac.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero:
                raise ZeroDenominator("negative power of zero")
            return RationalFunction(_power(self.den, -n), _power(self.num, -n))
        return RationalFunction(_power(self.num, n), _power(self.den, n))

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its FieldElement and int, so it hashes like them
        if degree(self.den) == 0 and degree(self.num) <= 0:
            return hash(self.num.coefficient(0))
        return hash((self.num, self.den))

    def __str__(self):
        if degree(self.den) == 0:  # the denominator is monic
            return poly_text(self.num)
        return f"({poly_text(self.num)})/({poly_text(self.den)})"

    def __repr__(self):
        return f"<ratfun {self}>"


def pade(series, deg_num_max, deg_den_max):
    """Rational function matching the series to full precision, or None.

    Requires prec(series) >= deg_num_max + deg_den_max + 2 so that the
    match is checked on strictly more coefficients than the candidate
    has degrees of freedom. A simple pole (valuation -1) is cleared by
    one shift and restored afterwards; deeper poles are rejected.

    Euclid carries each remainder's cofactor u in the same subtractions;
    the last r and its u give r/u with no division, certified by one
    product, den * series = num, before a gcd reduces it.
    """
    if deg_num_max < 0 or deg_den_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    if series.prec < deg_num_max + deg_den_max + 2:
        raise InsufficientPrecision(
            f"need prec >= {deg_num_max + deg_den_max + 2}, have {series.prec}"
        )
    field = series.field
    if series.is_zero:
        return RationalFunction.constant(field, 0)
    if series.val < -1:
        raise ValueError("series has a pole of order greater than one")

    shifted = series.val < 0
    t = series.shift(1) if shifted else series
    dn = deg_num_max
    dd = deg_den_max - 1 if shifted else deg_den_max
    if dd < 0:
        return None

    order = dn + dd + 1
    if t.prec != INF:
        order = min(order, int(t.prec))
    head = t.truncate(order)  # t.val >= 0
    if head.is_zero:  # Euclid would not start, and the candidate would be 0
        return None
    # Runs of remainder below L and cofactor from L, X^order = 0 * head and head =
    # 1 * head: Euclid keeps r = u * head (mod X^order), deg u = order - deg r_prev.
    L = order + 1
    a, b = (_padded(p, 2 * L) for p in (LaurentSeries.monomial(field, order), head))
    b[0][L] = 1
    run = kronecker._euclid(field, a, b, L, dn)[1]
    r, u = (_series(field, 0, part, INF) for part in ([c[:L] for c in run], [c[L:] for c in run]))
    if r.is_zero:  # the candidate would be 0, and the series is not
        return None
    # val(r) >= val(u): X^val(u) cancels, leaving u(0) != 0.
    num, den = r.shift(-u.val), u.shift(-u.val)
    # r/u meets both degree bounds as it stands and is the same function as
    # its reduced form. Below check_prec + val(den), den * series reaches
    # every known coefficient: with a simple pole den = X u.
    if shifted:
        den = den.shift(1)
    check_prec = (series.prec if series.prec != INF else
                  series.val + len(series.cols[0]) + deg_num_max + deg_den_max + 2)
    if not (den * series.truncate(check_prec)).agrees_with(num):
        return None
    return RationalFunction(num, den)


def derive_map_pair(curve, eta_rat):
    """Coordinate maps of the endomorphism with x-part eta.

    Returns (fx, fy_factor) for the map (x, y) -> (fx(x), y * fy_factor(x)),
    where fy_factor is the curve's scale constant times the derivative of
    eta, reduced to lowest terms.
    """
    d = eta_rat.derivative()  # in lowest terms, and scaling by c != 0 keeps it so
    return eta_rat, RationalFunction._lowest_terms(d.num * curve.c, d.den)
