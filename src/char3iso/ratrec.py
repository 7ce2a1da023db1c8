"""Exact polynomials and rational functions over GF(3^k), plus the
rational reconstruction (Pade approximation) of series prefixes.

Reconstruction runs the extended Euclidean scheme on the prefix and then
certifies the candidate by re-expanding it and comparing every known
coefficient; an imperfect match yields None rather than a guess.
"""

from __future__ import annotations

from . import kronecker
from .errors import InsufficientPrecision, MixedFields, ZeroDenominator
from .gf3field import FieldElement
from .series import INF, expand_rational


class Polynomial:
    """Polynomial with FieldElement coefficients, lowest degree first.

    Normalized: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        run = [field.from_int(c) if isinstance(c, int) else c for c in coeffs]
        while run and run[-1].is_zero:
            run.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(run))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise MixedFields("polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return Polynomial(self.field, (other,))
        return None

    def _add(self, other, subtract):
        """self + other, or self - other, coefficientwise; only other's
        nonzero coefficients cost a field operation."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        run = list(self.coeffs) + [self.field.zero] * (len(other.coeffs) - len(self.coeffs))
        op = FieldElement.__sub__ if subtract else FieldElement.__add__
        for i, c in enumerate(other.coeffs):
            if c:
                run[i] = op(run[i], c)
        return Polynomial(self.field, run)

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        return Polynomial(self.field, kronecker.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = kronecker.divmod(self.coeffs, other.coeffs)
        return Polynomial(self.field, q), Polynomial(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        inv = self.leading().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return Polynomial(
            self.field, [c * (i % 3) for i, c in enumerate(self.coeffs)][1:]
        )

    def eval(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def valuation(self):
        """Index of the first nonzero coefficient (None for zero)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                return i
        return None

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = Polynomial(self.field, (other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            cs = str(c)
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
        return "+".join(parts)

    def __repr__(self):
        return f"<poly {self}>"


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class RationalFunction:
    """Quotient of polynomials kept in lowest terms with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.field != den.field:
            raise MixedFields("numerator and denominator over different fields")
        if num.is_zero:
            den = Polynomial.one(num.field)
        else:
            if den.degree() > 0:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num = num // g
                    den = den // g
            lead_inv = den.leading().inverse()
            num = num * lead_inv
            den = den * lead_inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _lowest_terms(cls, num, den):
        """num/den from a pair already coprime with den monic."""
        if num.is_zero:
            den = Polynomial.one(num.field)
        rf = object.__new__(cls)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_polynomial(cls, p):
        return cls(p, Polynomial.one(p.field))

    @classmethod
    def constant(cls, field, value):
        return cls(Polynomial(field, (value,)), Polynomial.one(field))

    @classmethod
    def x(cls, field):
        return cls(Polynomial.x(field), Polynomial.one(field))

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
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (FieldElement, int)):
            return RationalFunction.constant(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.den.degree() == 0 or self.den.degree() == 0:
            # P/Q + p = (P + pQ)/Q, and gcd(P + pQ, Q) = gcd(P, Q) = 1
            frac, poly = (self, other) if other.den.degree() == 0 else (other, self)
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
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval(self, x):
        """Value at x, or None at a pole."""
        d = self.den.eval(x)
        if d.is_zero:
            return None
        return self.num.eval(x) / d

    def expand(self, prec):
        """Laurent expansion at X = 0 to absolute precision prec."""
        return expand_rational(self.num.coeffs, self.den.coeffs, prec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == Polynomial.one(self.field):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<ratfun {self}>"


def pade(series, deg_num_max, deg_den_max):
    """Rational function matching the series to full precision, or None.

    Requires prec(series) >= deg_num_max + deg_den_max + 2 so that the
    match is certified on strictly more coefficients than the candidate
    has degrees of freedom. A simple pole (valuation -1) is cleared by
    one shift and restored afterwards; deeper poles are rejected.
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
    prefix = Polynomial(field, [t.coefficient(e) for e in range(order)])

    r_prev = Polynomial(field, [0] * order + [1])  # X^order
    r_cur = prefix
    u_prev = Polynomial.zero(field)
    u_cur = Polynomial.one(field)
    while r_cur.degree() > dn:
        q, rem = divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, u_prev - q * u_cur
    if u_cur.is_zero:
        return None
    if series.prec == INF:
        check_prec = (series.val + len(series.coeffs)
                      + deg_num_max + deg_den_max + 2)
    else:
        check_prec = series.prec
    if r_cur.is_zero:
        num, den = r_cur, Polynomial.one(field)
    else:
        # Strip the common power of X; if X still divides u, the reduced
        # form has a pole at 0 that the series does not have.
        s = min(r_cur.valuation(), u_cur.valuation())
        num = Polynomial(field, r_cur.coeffs[s:])
        den = Polynomial(field, u_cur.coeffs[s:])
        if den.coeffs[0].is_zero:
            return None
    # Euclid keeps deg u = order - deg r_prev <= dd, so r/u meets both degree
    # bounds as it stands. It is the same function as its reduced form, so
    # it is certified first and reduced by a gcd only once it has passed.
    if shifted:
        den = Polynomial(field, (field.zero,) + den.coeffs)
    if not expand_rational(num.coeffs, den.coeffs, check_prec).agrees_with(
            series.truncate(check_prec)):
        return None
    return RationalFunction(num, den)


def derive_map_pair(curve, eta_rat):
    """Coordinate maps of the endomorphism with x-part eta.

    Returns (fx, fy_factor) for the map (x, y) -> (fx(x), y * fy_factor(x)),
    where fy_factor is the curve's scale constant times the derivative of
    eta, reduced to lowest terms.
    """
    return eta_rat, eta_rat.derivative() * curve.c
