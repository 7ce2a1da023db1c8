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
from .errors import MixedFields, PrecisionError, ZeroDivisor
from .gf3field import _MOD3, FieldElement

INF = math.inf


class LaurentSeries:
    """Immutable truncated Laurent series.

    Stored as (valuation, coefficient run, precision); the run starts and
    ends with nonzero coefficients and exponents between the end of the run
    and prec are known zeros. The zero-to-precision series has an empty run
    and val None.

    The run is kept in the kernel's column form: `cols` holds k bytes
    columns, column j the t^j digit of each coefficient, so arithmetic is a
    few big-int or bytes operations per column. A product with a
    one-coefficient run c X^n scales the other run by c's matrix over F3
    (_scaled) instead of a kernel product, and a one-coefficient run by one
    field product. A nonzero monomial below its precision is stored as its
    one-byte columns, with no cut or strip. FieldElements are made only
    where coefficients are handed out (coeffs, coefficient, nonzero_terms).
    """

    __slots__ = ("field", "val", "cols", "prec")

    def __new__(cls, field, val, coeffs, prec):
        run = [_packed(field, c) for c in coeffs]
        return _series(field, val, kronecker._columns(run, field.degree) if run else (), prec)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    def __reduce__(self):
        # __new__ takes coefficients, not the stored columns
        return _made, (self.field, self.val, self.cols, self.prec)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, prec=INF):
        return _series(field, None, (), prec)

    @classmethod
    def constant(cls, field, value, prec=INF):
        return cls.monomial(field, 0, value, prec)

    @classmethod
    def monomial(cls, field, exponent, coeff=1, prec=INF):
        packed = coeff % 3 if isinstance(coeff, int) else _packed(field, coeff)
        return _monomial(field, exponent, packed, prec)

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
    def coeffs(self):
        """The coefficient run as a tuple of FieldElements, made on each call."""
        return tuple(kronecker._elements(self.field, self.cols))

    @property
    def is_zero(self):
        """True when every known coefficient vanishes (zero to precision)."""
        return self.val is None

    def _vbound(self):
        """Valuation, or its best lower bound (prec) for a zero series."""
        return self.prec if self.val is None else self.val

    def coefficient(self, exponent):
        """Coefficient at the exponent; refuses to answer beyond prec."""
        if exponent >= self.prec:
            raise PrecisionError(
                f"coefficient at X^{exponent} unknown (prec {self.prec})"
            )
        if self.val is None or not 0 <= exponent - self.val < len(self.cols[0]):
            return self.field.zero
        digits = bytes([c[exponent - self.val] for c in self.cols])
        return FieldElement._from_packed(self.field, int.from_bytes(digits, "little"))

    def nonzero_terms(self):
        """Known nonzero (exponent, coefficient) pairs, ascending, made lazily."""
        return ((e, FieldElement._from_packed(self.field, p)) for e, p in self._terms())

    def _terms(self):
        """Known nonzero (exponent, packed coefficient) pairs, ascending."""
        return ((e, p) for e, p in enumerate(kronecker._packed(self.cols), self.val or 0) if p)

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
        common precision: one int sum and one translate per column."""
        if type(other) is not LaurentSeries or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        prec = self.prec if self.prec <= other.prec else other.prec
        if self.val is not None and other.val is not None:  # both runs nonzero
            lo = self.val if self.val < other.val else other.val
            hi = max(self.val + len(self.cols[0]), other.val + len(other.cols[0]))
            if hi > prec:
                hi = prec
        else:
            present = [s for s in (self, other) if s.val is not None]
            lo = min((s.val for s in present), default=0)
            hi = min(max((s.val + len(s.cols[0]) for s in present), default=0), prec)
        if hi <= lo:
            return LaurentSeries.zero(self.field, prec)
        n, factor = hi - lo, 2 if subtract else 1  # -d = 2d (mod 3); a byte sums to at most 6
        cols = [(x + factor * y).to_bytes(n, "little").translate(_MOD3)
                for x, y in zip(_aligned(self, lo, hi), _aligned(other, lo, hi))]
        return _stripped(self.field, lo, cols, prec)  # the sum lies below prec

    def __add__(self, other):
        return self._add(other, False)

    def __sub__(self, other):
        return self._add(other, True)

    def __neg__(self):
        return _series(self.field, self.val, [c.translate(kronecker._NEG) for c in self.cols],
                       self.prec)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):  # c X^0 keeps val and prec
            packed = other % 3 if isinstance(other, int) else _packed(self.field, other)
            return self._scaled(packed, 0, self.prec) if packed else LaurentSeries.zero(self.field)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.prec + other._vbound(), other.prec + self._vbound())
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(self.field, prec)
        if len(other.cols[0]) == 1:  # c X^n scales the other run
            return self._scaled(int.from_bytes(b"".join(other.cols), "little"), other.val, prec)
        if len(self.cols[0]) == 1:
            return other._scaled(int.from_bytes(b"".join(self.cols), "little"), self.val, prec)
        val = self.val + other.val  # below prec, as each run lies below its own prec
        n = len(self.cols[0]) + len(other.cols[0]) - 1
        if prec == INF:  # the end terms' products are nonzero: the run is stripped
            b = self.cols if other is self else other.cols
            return _made(self.field, val, tuple(kronecker._mul_cols(self.field, self.cols, b, n)), INF)
        n = min(n, prec - val)
        a = [c[:n] for c in self.cols]
        b = a if other is self else [c[:n] for c in other.cols]
        return _series(self.field, val, kronecker._mul_cols(self.field, a, b, n), prec)

    __rmul__ = __mul__

    def _scaled(self, packed, shift, prec):
        """self times c X^shift cut at prec, c the nonzero constant packed as
        `packed`: c's k x k matrix over F3 (column j the digits of c t^j)
        maps the columns, with no kernel product; a one-coefficient run
        takes one field product; times 1 is self."""
        if packed == 1 and shift == 0 and prec == self.prec:
            return self
        field, cols = self.field, self.cols
        val = None if self.val is None else self.val + shift
        if len(cols[0]) == 1:  # c d X^val: one field product
            d = int.from_bytes(b"".join(cols), "little")
            if packed != 1:
                d = (FieldElement._from_packed(field, packed)
                     * FieldElement._from_packed(field, d)).packed
            return _monomial(field, val, d, prec)
        if packed != 1:
            cols = tuple(kronecker._f3_linear(kronecker._scale_matrix(field, packed),
                                              kronecker._ints(cols), len(cols[0])))
        if val is not None and val + len(cols[0]) <= prec:  # c != 0 keeps the run stripped
            return _made(field, val, cols, prec)
        return _series(field, val, cols, prec)

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
        field, qval = self.field, self.val - other.val
        if len(other.cols[0]) == 1:  # by c X^n: scale by 1/c, as a product scales by c
            return self._scaled(other.coefficient(other.val).inverse().packed, -other.val, target)
        exact = target == INF  # then the quotient has len(self) - len(other) + 1 terms
        n = len(self.cols[0]) - len(other.cols[0]) + 1 if exact else target - qval
        if n <= 0:
            q = LaurentSeries.zero(field, target)
        else:
            inv = kronecker._inverse_cols(field, [c[:n] for c in other.cols], n)
            q = kronecker._mul_cols(field, [c[:n] for c in self.cols], inv, n)
            q = _series(field, qval, q, target)
        if exact and q * other != self:  # one product checks an exact quotient
            raise ValueError("division of exact series is inexact; pass prec for a truncation")
        return q

    def shift(self, n):
        """Multiply by X^n (n may be negative)."""
        val = None if self.val is None else self.val + n
        return _series(self.field, val, self.cols, self.prec + n)

    def truncate(self, prec):
        """Forget coefficients at and beyond `prec` (never gains precision)."""
        return _series(self.field, self.val, self.cols, min(prec, self.prec))

    def derivative(self):
        """Formal derivative; exponents act mod 3, so the coefficients at
        exponents = 0 vanish and those at exponents = 2 change sign."""
        if self.is_zero:
            return LaurentSeries.zero(self.field, self.prec - 1)
        at0, at2 = -self.val % 3, (2 - self.val) % 3
        cols = []
        for c in self.cols:
            buf = bytearray(c)
            buf[at0::3] = bytes(len(buf[at0::3]))
            buf[at2::3] = buf[at2::3].translate(kronecker._NEG)
            cols.append(buf)
        return _series(self.field, self.val - 1, cols, self.prec - 1)

    def cube(self):
        """Third power via the Frobenius: sum of a_n^3 X^(3n).

        In characteristic 3 cubing is coefficientwise, so the result is
        known out to three times the input precision. The Frobenius is
        F3-linear on the digits: its matrix maps the columns, and each
        image column spreads to every third exponent.
        """
        if self.is_zero:
            return LaurentSeries.zero(self.field, 3 * self.prec)
        cols = kronecker._cube_cols(self.field, self.cols, 3 * len(self.cols[0]) - 2)
        return _series(self.field, 3 * self.val, cols, 3 * self.prec)

    # ---- comparisons and display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field == other.field and self.val == other.val
                and self.cols == other.cols and self.prec == other.prec)

    def __hash__(self):
        return hash((self.val, self.cols, self.prec))

    def agrees_with(self, other):
        """Equality after truncating both to the common precision."""
        if other.field != self.field:
            raise MixedFields("series over different fields")
        p = min(self.prec, other.prec)
        return self.truncate(p) == other.truncate(p)

    def __str__(self):
        parts, names = [], self.field._names
        for e, p in self._terms():
            cs = names[p]
            if ("+" in cs or "*" in cs) and e != 0:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        body = " + ".join(parts) or "0"
        return body if self.prec == INF else f"{body} + O(x^{self.prec})"

    def __repr__(self):
        return f"<series {self}>"


def in_residue_class(s, residue):
    """True when every known nonzero coefficient sits at exponent = residue (mod 3)."""
    return s.is_zero or kronecker._in_class(s.cols, (residue - s.val) % 3)


def decimated(s):
    """The series r with r(X^3) = s, for s in K((X^3)): every third
    coefficient, known to ceil(prec/3)."""
    val = None if s.val is None else s.val // 3
    return _series(s.field, val, [c[::3] for c in s.cols],
                   s.prec if s.prec == INF else -(-s.prec // 3))


def spread(r):
    """r(X^3), known to three times r's precision."""
    if r.is_zero:
        return LaurentSeries.zero(r.field, 3 * r.prec)
    cols = kronecker._spread(r.cols, 3 * len(r.cols[0]) - 2)
    return _made(r.field, 3 * r.val, tuple(map(bytes, cols)), 3 * r.prec)


def _packed(field, element):
    """The element's packed digits; MixedFields unless it lies in `field`."""
    if element.field is not field and element.field != field:
        raise MixedFields("coefficient from a different field")
    return element.packed


def _series(field, val, cols, prec):
    """Series from a run in column form, cut at prec and stripped."""
    if prec != INF and not isinstance(prec, int):
        raise TypeError("prec must be an int or INF")
    if cols and val is not None and len(cols[0]) > prec - val:
        cols = [c[:max(0, prec - val)] for c in cols]
    return _stripped(field, val, cols, prec)


def _stripped(field, val, cols, prec):
    """Series from a run in column form that lies below prec, stripped of
    its zero padding."""
    mask = kronecker._mask(cols)
    if not mask:
        return _made(field, None, (b"",) * field.degree, prec)
    start, stop = ((mask & -mask).bit_length() - 1) // 8, (mask.bit_length() + 7) // 8
    if start == 0 and stop == len(cols[0]):  # already stripped, as a product's run is
        return _made(field, val, tuple(map(bytes, cols)), prec)
    return _made(field, val + start, tuple([bytes(c[start:stop]) for c in cols]), prec)


def _made(field, val, cols, prec):
    """Series with exactly these fields: a stripped run of bytes columns
    in a tuple, below an int or infinite prec."""
    s = _new_series(LaurentSeries)
    _set_field(s, field)
    _set_val(s, val)
    _set_cols(s, cols)
    _set_prec(s, prec)
    return s


def _monomial(field, exponent, packed, prec):
    """c X^exponent cut at prec, c the constant packed as `packed`. A
    nonzero term below an int or infinite prec is already a stripped run,
    so its one-byte columns are stored as they are; anything else (zero,
    cut off, or a prec of the wrong type) takes _series."""
    digits = packed.to_bytes(field.degree, "little")
    cols = tuple(digits[j:j + 1] for j in range(field.degree))
    if packed and (prec == INF or isinstance(prec, int) and exponent < prec):
        return _made(field, exponent, cols, prec)
    return _series(field, exponent, cols, prec)


def _aligned(s, lo, hi):
    """The columns of s as ints whose byte i is exponent lo + i, cut at hi."""
    if s.val is None:
        return (0,) * len(s.cols)
    end, shift = max(0, hi - s.val), 8 * (s.val - lo)
    return [int.from_bytes(c[:end], "little") << shift for c in s.cols]


_new_series = object.__new__
_set_field = LaurentSeries.field.__set__
_set_val = LaurentSeries.val.__set__
_set_cols = LaurentSeries.cols.__set__
_set_prec = LaurentSeries.prec.__set__
