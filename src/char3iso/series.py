"""Truncated Laurent series over GF(3^k) with explicit precision tracking.

A series is "known modulo X^prec": coefficients at exponents below prec are
exact, everything at prec and above is unknown. prec may be infinite for
exact data such as polynomials. Every operation computes the exact precision
of its result instead of assuming a global cap, so no coefficient is ever
reported that the inputs do not determine.

Precision rules:
    prec(a + b)   = min(prec a, prec b)
    prec(a * b)   = min(prec a + val b, prec b + val a)
    prec(1 / b)   = prec b - 2 val b
    prec(a')      = prec a - 1
    prec(a cubed) = 3 prec a        (coefficientwise Frobenius, not a product)

For series that are zero to their precision, the precision itself serves as
the valuation lower bound in the rules above.
"""

from __future__ import annotations

import math

from . import kronecker
from .errors import MixedFields, PrecisionError, ZeroDenominator, ZeroDivisor
from .gf3field import FieldElement

INF = math.inf


class LaurentSeries:
    """Immutable truncated Laurent series.

    Stored as (valuation, coefficient run, precision); the run starts and
    ends with nonzero coefficients and exponents between the end of the run
    and prec are known zeros. The zero-to-precision series has an empty run
    and val None.
    """

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec):
        coeffs = tuple(coeffs)
        if prec != INF and not isinstance(prec, int):
            raise TypeError("prec must be an int or INF")
        # drop anything at or beyond prec, then strip zero padding
        end = len(coeffs)
        if prec != INF and val is not None:
            end = max(0, min(end, prec - val))
        start = 0
        while start < end and coeffs[start].is_zero:
            start += 1
        while end > start and coeffs[end - 1].is_zero:
            end -= 1
        coeffs = coeffs[start:end]
        val = val + start if coeffs else None
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, prec=INF):
        return cls(field, None, (), prec)

    @classmethod
    def constant(cls, field, value, prec=INF):
        if isinstance(value, int):
            value = field.from_int(value)
        return cls(field, 0, (value,), prec)

    @classmethod
    def monomial(cls, field, exponent, coeff=1, prec=INF):
        if isinstance(coeff, int):
            coeff = field.from_int(coeff)
        return cls(field, exponent, (coeff,), prec)

    @classmethod
    def from_terms(cls, field, terms, prec=INF):
        """Series from an {exponent: coefficient} mapping."""
        items = {e: (field.from_int(c) if isinstance(c, int) else c)
                 for e, c in terms.items()}
        items = {e: c for e, c in items.items() if not c.is_zero}
        if not items:
            return cls.zero(field, prec)
        lo = min(items)
        hi = max(items)
        run = [items.get(e, field.zero) for e in range(lo, hi + 1)]
        return cls(field, lo, run, prec)

    @classmethod
    def from_coeffs(cls, field, val, coeffs, prec=INF):
        """Series with the given coefficient run starting at exponent val."""
        run = [field.from_int(c) if isinstance(c, int) else c for c in coeffs]
        return cls(field, val, run, prec)

    # ---- basic queries -------------------------------------------------

    @property
    def is_zero(self):
        """True when every known coefficient vanishes (zero to precision)."""
        return not self.coeffs

    @property
    def is_exactly_zero(self):
        return not self.coeffs and self.prec == INF

    def _vbound(self):
        """Valuation, or its best lower bound (prec) for a zero series."""
        return self.val if self.coeffs else self.prec

    def coefficient(self, exponent):
        """Coefficient at the exponent; refuses to answer beyond prec."""
        if exponent >= self.prec:
            raise PrecisionError(
                f"coefficient at X^{exponent} unknown (prec {self.prec})"
            )
        if not self.coeffs or exponent < self.val:
            return self.field.zero
        i = exponent - self.val
        if i >= len(self.coeffs):
            return self.field.zero
        return self.coeffs[i]

    def nonzero_terms(self):
        """Known nonzero (exponent, coefficient) pairs, ascending."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                yield self.val + i, c

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            if other.field != self.field:
                raise MixedFields("series over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return LaurentSeries.constant(self.field, other)
        return None

    def _add(self, other, subtract):
        """self + other, or self - other, on the runs aligned below the
        common precision; only other's nonzero coefficients cost a field
        operation."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.prec, other.prec)
        present = [s for s in (self, other) if s.coeffs]
        lo = min((s.val for s in present), default=0)
        hi = min(max((s.val + len(s.coeffs) for s in present), default=0), prec)
        if hi <= lo:
            return LaurentSeries.zero(self.field, prec)
        run = [self.field.zero] * (hi - lo)
        if self.coeffs:
            part = self.coeffs[:max(0, hi - self.val)]
            run[self.val - lo:self.val - lo + len(part)] = part
        if other.coeffs:
            op = FieldElement.__sub__ if subtract else FieldElement.__add__
            for i, c in enumerate(other.coeffs[:max(0, hi - other.val)], other.val - lo):
                if c:
                    run[i] = op(run[i], c)
        return LaurentSeries(self.field, lo, run, prec)

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentSeries(self.field, self.val, [-c for c in self.coeffs], self.prec)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.prec + other._vbound(), other.prec + self._vbound())
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(self.field, prec)
        val = self.val + other.val
        if prec != INF and prec <= val:
            return LaurentSeries.zero(self.field, prec)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec != INF:
            n = min(n, prec - val)
        return LaurentSeries(self.field, val, kronecker.mul(self.coeffs, other.coeffs, n), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.divide(other)

    def divide(self, other, prec=None):
        """self / other, optionally capped at absolute precision `prec`.

        The divisor must be nonzero to its precision. When both operands
        are exact the division must be exact too (raise otherwise); pass
        `prec` to ask for a truncated expansion instead.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot divide by this operand")
        if other.is_zero:
            raise ZeroDivisor("division by a series that is zero to its precision")
        natural = min(self.prec - other.val,
                      other.prec - 2 * other.val + self._vbound())
        target = natural if prec is None else min(natural, prec)
        if self.is_zero:
            return LaurentSeries.zero(self.field, target)
        qval = self.val - other.val
        if target == INF:
            q, r = kronecker.divmod(self.coeffs, other.coeffs)
            if r:
                raise ValueError(
                    "division of exact series is inexact; pass prec for a truncation"
                )
            return LaurentSeries(self.field, qval, q, INF)
        n = target - qval
        if n <= 0:
            return LaurentSeries.zero(self.field, target)
        q = kronecker.mul(self.coeffs, kronecker.inverse(other.coeffs, n), n)
        return LaurentSeries(self.field, qval, q, target)

    def inverse(self, prec=None):
        one = LaurentSeries.constant(self.field, 1)
        return one.divide(self, prec=prec)

    def shift(self, n):
        """Multiply by X^n (n may be negative)."""
        val = None if self.val is None else self.val + n
        return LaurentSeries(self.field, val, self.coeffs, self.prec + n)

    def truncate(self, prec):
        """Forget coefficients at and beyond `prec` (never gains precision)."""
        new_prec = min(prec, self.prec)
        return LaurentSeries(self.field, self.val, self.coeffs, new_prec)

    def derivative(self):
        """Formal derivative; exponents act mod 3."""
        if self.is_zero:
            return LaurentSeries.zero(self.field, self.prec - 1)
        out = [c * ((self.val + i) % 3) for i, c in enumerate(self.coeffs)]
        return LaurentSeries(self.field, self.val - 1, out, self.prec - 1)

    def cube(self):
        """Third power via the Frobenius: sum of a_n^3 X^(3n).

        In characteristic 3 cubing is coefficientwise, so the result is
        known out to three times the input precision.
        """
        if self.is_zero:
            return LaurentSeries.zero(self.field, 3 * self.prec)
        out = [self.field.zero] * (3 * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                out[3 * i] = c.frobenius()
        return LaurentSeries(self.field, 3 * self.val, out, 3 * self.prec)

    # ---- comparisons and display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field == other.field and self.val == other.val
                and self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self):
        return hash((self.val, self.coeffs, self.prec))

    def agrees_with(self, other):
        """Equality after truncating both to the common precision."""
        if other.field != self.field:
            raise MixedFields("series over different fields")
        p = min(self.prec, other.prec)
        return self.truncate(p) == other.truncate(p)

    def __str__(self):
        parts = []
        for e, c in self.nonzero_terms():
            cs = str(c)
            if ("+" in cs or "*" in cs) and e != 0:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        body = " + ".join(parts) if parts else "0"
        if self.prec == INF:
            return body
        return f"{body} + O(x^{self.prec})"

    def __repr__(self):
        return f"<series {self}>"


def in_residue_class(s, residue):
    """True when every known nonzero coefficient sits at exponent = residue (mod 3)."""
    return all(e % 3 == residue for e, _ in s.nonzero_terms())


def expand_rational(num, den, prec):
    """Laurent expansion of num/den at X = 0 to absolute precision prec.

    num and den are polynomials given as coefficient sequences of field
    elements (lowest degree first).
    """
    if not den or all(c.is_zero for c in den):
        raise ZeroDenominator("expansion denominator is zero")
    field = den[0].field
    a = LaurentSeries.from_coeffs(field, 0, num, INF)
    b = LaurentSeries.from_coeffs(field, 0, den, INF)
    return a.divide(b, prec=prec)
