"""Exact polynomials and rational functions over GF(3^k), plus the
rational reconstruction (Pade approximation) of series prefixes.

A Polynomial is an exact LaurentSeries (prec INF, val >= 0): its run stays
in the kernel's byte columns, so sums, products, division and the Euclid
loops of pade and poly_gcd make no FieldElement. A product is one series
product: a constant or monomial factor scales the other run through its
matrix over F3 (LaurentSeries._scaled; the k elements that build that
matrix are the only ones made), and monic and RationalFunction multiply
by the inverse leading coefficient that way. The coefficients are
unpacked once per polynomial, and only where they are read (eval, str).

Reconstruction runs the extended Euclidean scheme on the prefix and then
certifies the candidate by re-expanding it and comparing every known
coefficient; an imperfect match yields None rather than a guess.
"""

from __future__ import annotations

from . import kronecker
from .errors import InsufficientPrecision, MixedFields, ZeroDenominator
from .gf3field import FieldElement
from .series import INF, LaurentSeries, _series


class Polynomial:
    """Polynomial over GF(3^k): the exact series `series`, read as a run
    from degree 0. The zero polynomial has degree -1."""

    __slots__ = ("series", "_coeffs")

    def __init__(self, field, coeffs=()):
        run = [field.from_int(c) if isinstance(c, int) else c for c in coeffs]
        object.__setattr__(self, "series", LaurentSeries(field, 0, run, INF))
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _of(cls, series):
        p = object.__new__(cls)
        object.__setattr__(p, "series", series)
        object.__setattr__(p, "_coeffs", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field):
        return cls._of(LaurentSeries.zero(field))

    @classmethod
    def one(cls, field):
        return cls._of(LaurentSeries.monomial(field, 0, field.one))

    @classmethod
    def x(cls, field):
        return cls._of(LaurentSeries.monomial(field, 1, field.one))

    @property
    def field(self):
        return self.series.field

    @property
    def coeffs(self):
        """The coefficients from degree 0 up as FieldElements, unpacked on
        first use and kept."""
        if self._coeffs is None:
            s = self.series
            run = () if s.val is None else (s.field.zero,) * s.val + s.coeffs
            object.__setattr__(self, "_coeffs", run)
        return self._coeffs

    @property
    def is_zero(self):
        return self.series.val is None

    def __bool__(self):
        return self.series.val is not None

    def degree(self):
        s = self.series
        return -1 if s.val is None else s.val + len(s.cols[0]) - 1

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        digits = bytes([c[-1] for c in self.series.cols])
        return FieldElement._from_packed(self.field, int.from_bytes(digits, "little"))

    def is_monic(self):
        return not self.is_zero and self.leading() == 1

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise MixedFields("polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return Polynomial._of(LaurentSeries.constant(self.field, other))
        return None

    def _add(self, other, subtract):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._of(self.series._add(other.series, subtract))

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial._of(-self.series)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):  # the series scales by it
            product = self.series * other
        else:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
            product = self.series * other.series
            if product is other.series:  # 1 times other
                return other
        return self if product is self.series else Polynomial._of(product)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.one(self.field) if result is None else result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        if self.degree() < other.degree():
            return Polynomial.zero(field), self
        # the runs padded from degree 0, so that both are aligned at the top
        a, b = ([bytes(p.series.val) + c for c in p.series.cols] for p in (self, other))
        return tuple(Polynomial._of(_series(field, 0, cols, INF))
                     for cols in kronecker._divmod_cols(field, a, b))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        return self if self.is_zero else self * self.leading().inverse()

    def derivative(self):
        return Polynomial._of(self.series.derivative())

    def eval(self, x):
        coeffs = self.coeffs
        if not coeffs:
            return self.field.zero
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.series == other.series

    def __hash__(self):
        return hash(self.series)

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
    """Monic greatest common divisor; 1 once a remainder is a nonzero constant."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    while b.degree() > 0:
        a, b = b, a % b
    return a.monic() if b.is_zero else Polynomial.one(b.field)


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
            num, den = num * lead_inv, den * lead_inv
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
        return self.num.series.divide(self.den.series, prec=prec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.degree() == 0:  # the denominator is monic
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
    head = t.truncate(order)  # t.val >= 0
    prefix = Polynomial._of(_series(field, head.val, head.cols, INF))

    r_prev = Polynomial._of(LaurentSeries.monomial(field, order, field.one))
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
        check_prec = (series.val + len(series.cols[0])
                      + deg_num_max + deg_den_max + 2)
    else:
        check_prec = series.prec
    num, den = r_cur.series, u_cur.series
    if not r_cur.is_zero:
        # Strip the common power of X; if X still divides u, the reduced
        # form has a pole at 0 that the series does not have.
        s = min(num.val, den.val)
        num, den = num.shift(-s), den.shift(-s)
        if den.val != 0:
            return None
    else:
        den = LaurentSeries.monomial(field, 0, field.one)
    # Euclid keeps deg u = order - deg r_prev <= dd, so r/u meets both degree
    # bounds as it stands. It is the same function as its reduced form, so
    # it is certified first and reduced by a gcd only once it has passed.
    if shifted:
        den = den.shift(1)
    if not num.divide(den, prec=check_prec).agrees_with(series.truncate(check_prec)):
        return None
    return RationalFunction(Polynomial._of(num), Polynomial._of(den))


def derive_map_pair(curve, eta_rat):
    """Coordinate maps of the endomorphism with x-part eta.

    Returns (fx, fy_factor) for the map (x, y) -> (fx(x), y * fy_factor(x)),
    where fy_factor is the curve's scale constant times the derivative of
    eta, reduced to lowest terms.
    """
    return eta_rat, eta_rat.derivative() * curve.c
