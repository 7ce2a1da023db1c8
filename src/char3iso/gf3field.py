"""Exact arithmetic in GF(3^k) with a polynomial-basis representation.

Elements are coefficient vectors over F3 reduced modulo a monic irreducible
polynomial. Everything is exact and immutable; operations are pure.

An element packs its k digits one per byte into a Python int (the t^j digit
is byte j). Since 256 = 1 (mod 3), each operation is a few big-int steps and
one bytes.translate that reduces every byte mod 3, with no loop over digits.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import MixedFields

CHAR = 3

_MOD3 = bytes(v % 3 for v in range(256))

# First monic irreducible polynomial of each degree over F3, counting the
# non-leading coefficient vector (c0, c1, ...) in ascending base-3 numeric
# order. Degree 2 is t^2 + 1, so GF(9) uses the t^2 = -1 convention.
DEFAULT_MODULI = {
    1: (0, 1),
    2: (1, 0, 1),
    3: (1, 2, 0, 1),
    4: (2, 1, 0, 0, 1),
    5: (1, 2, 0, 0, 0, 1),
    6: (2, 1, 0, 0, 0, 0, 1),
    7: (2, 0, 1, 0, 0, 0, 0, 1),
    8: (2, 0, 1, 0, 0, 0, 0, 0, 1),
    9: (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    10: (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
}


# The one FieldParams of each normalised (degree, modulus) made in this process
_FIELDS = {}


class _Interned(type):
    """FieldParams(degree, modulus) returns one object per normalised
    (degree, modulus) in a process, built on the first call: a modulus of
    None is read from DEFAULT_MODULI and every digit is reduced mod 3. A
    modulus that fails a check raises on every call and leaves no entry."""

    def __call__(cls, degree, modulus=None):
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[degree]
            except KeyError:
                raise ValueError(
                    f"no default modulus for degree {degree}; pass one explicitly"
                ) from None
        key = degree, tuple(int(c) % 3 for c in modulus)
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS.setdefault(key, super().__call__(*key))
        return field


class FieldParams(metaclass=_Interned):
    """GF(3^k) given by extension degree and a monic irreducible modulus.

    One object per field in a process (see _Interned), so what is derived
    from the modulus alone is made once: the irreducibility test, the
    product tables, the Frobenius matrix, the text of each element and of
    the modulus, and the memos of inverses and of multiplication matrices,
    at most q - 1 entries each. Equality is on (degree, modulus), so an
    equal field built outside the intern table still interoperates.
    """

    def __init__(self, degree, modulus):
        """The field of a normalised (degree, modulus); call the class, not
        this, to get the one object of the field."""
        if len(modulus) != degree + 1:
            raise ValueError("modulus degree does not match field degree")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.degree = degree
        self.modulus = modulus
        self.order = 3 ** degree
        # t^(k+i) mod modulus for i = 0 .. k-2, used to fold products back
        high = []
        cur = [(-c) % 3 for c in modulus[:degree]]
        high.append(tuple(cur))
        for _ in range(degree - 2):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [(x + lead * h) % 3 for x, h in zip(cur, high[0])]
            high.append(tuple(cur))
        self._high_powers = tuple(high)
        self._names = _Names()  # FieldElement.__str__: at most q strings, made as printed
        self.modulus_text = "+".join(reversed(_terms(modulus)))
        self._inverses = {}  # packed -> packed inverse, filled by _inverse_packed
        self._scale_matrices = {}  # packed c -> rows of x -> c x, by kronecker._scale_matrix
        self.zero = FieldElement._from_packed(self, 0)
        self.one = FieldElement._from_packed(self, 1)
        self.gen = FieldElement._from_packed(self, 256) if degree >= 2 else None
        # Rabin's test, on this ring's own arithmetic (exact in F3[t]/(f) for
        # any monic f): f of degree k > 1 is irreducible exactly when
        # t^(3^k) = t and t^(3^d) - t is a unit for each proper divisor d of
        # k; inverse() returns 0 for a non-unit. Degree 1 is always irreducible.
        frob = self.gen
        for d in range(1, degree + 1) if degree > 1 else ():
            frob = frob.frobenius()  # t^(3^d) mod f
            gap = frob - self.gen
            proper_divisor = d < degree and degree % d == 0
            if (d == degree and gap) or (proper_divisor and not (gap and gap.inverse())):
                raise ValueError("modulus is reducible over F3")

    @functools.cached_property
    def _tables(self):
        """The byte width of a product slot (k products of digits of at most
        2 sum to 4k) and _high_powers as packed ints, for FieldElement.__mul__."""
        return ((4 * self.degree).bit_length() + 7) // 8, tuple(
            int.from_bytes(bytes(h), "little") for h in self._high_powers)

    @functools.cached_property
    def _frobenius(self):
        """The cube map a -> a^3 as a matrix over F3 on the digits, by rows:
        entry (i, j) is the t^i digit of (t^j)^3. For kronecker._cube_cols,
        kronecker._cube_packed and solve_additive_cubic."""
        return tuple(zip(*(_from_packed(self, 1 << 8 * j).frobenius().coeffs
                           for j in range(self.degree))))

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def from_int(self, n):
        """The integer n reduced mod 3 as a field constant."""
        return FieldElement._from_packed(self, n % 3)

    def elements(self):
        """All field elements in ascending coefficient order."""
        for coeffs in itertools.product(range(3), repeat=self.degree):
            yield FieldElement._from_packed(self, int.from_bytes(bytes(coeffs), "little"))

    def __eq__(self, other):
        if not isinstance(other, FieldParams):
            return NotImplemented
        return self.degree == other.degree and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __reduce__(self):
        # copy, deepcopy and pickle call the class, so they return the interned field
        return FieldParams, (self.degree, self.modulus)

    def __repr__(self):
        return f"FieldParams(3^{self.degree}, modulus={list(self.modulus)})"


class FieldElement:
    """An element of GF(3^k); coordinates in the polynomial basis 1, t, t^2, ...
    packed one digit per byte into the int `packed`."""

    __slots__ = ("field", "packed")

    def __init__(self, field, coeffs):
        digits = bytes(int(c) % 3 for c in coeffs)
        if len(digits) != field.degree:
            raise ValueError(
                f"expected {field.degree} coordinates, got {len(digits)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "packed", int.from_bytes(digits, "little"))

    @staticmethod
    def _from_packed(field, packed):
        """Element from an int whose bytes are field.degree digits in {0, 1, 2}."""
        element = _new_element(FieldElement)
        _set_field(element, field)
        _set_packed(element, packed)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        # the default would restore the slots through __setattr__, which raises
        return _from_packed, (self.field, self.packed)

    @property
    def coeffs(self):
        return tuple(self.packed.to_bytes(self.field.degree, "little"))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise MixedFields(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    @property
    def is_zero(self):
        return not self.packed

    def __bool__(self):
        return bool(self.packed)

    def __add__(self, other):
        field = self.field
        if type(other) is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _from_packed(field, _reduce(self.packed + other.packed, field.degree))

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if type(other) is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # -b = 2b (mod 3)
        return _from_packed(field, _reduce(self.packed + 2 * other.packed, field.degree))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _from_packed(self.field, _reduce(2 * self.packed, self.field.degree))

    def __mul__(self, other):
        field = self.field
        if type(other) is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        k = field.degree
        width, high = field._tables
        if width == 1:
            digits = (self.packed * other.packed).to_bytes(2 * k - 1, "little").translate(_MOD3)
        else:  # 256 = 1 (mod 3), so a slot is its bytes' sum mod 3
            slots = _spread(self.packed, k, width) * _spread(other.packed, k, width)
            slots = slots.to_bytes((2 * k - 1) * width, "little").translate(_MOD3)
            total = sum(int.from_bytes(slots[i::width], "little") for i in range(width))
            digits = total.to_bytes(2 * k - 1, "little").translate(_MOD3)
        # fold t^k .. t^(2k-2) back: 2 + 63 terms of at most 4 stay below 256
        acc = int.from_bytes(digits[:k], "little")
        for i in range(k, 2 * k - 1, 63):
            acc = _reduce(sum(map(operator.mul, digits[i:i + 63], high[i - k:i - k + 63]), acc), k)
        return _from_packed(field, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self.packed:
            raise ZeroDivisionError("inverse of zero field element")
        return _from_packed(self.field, _inverse_packed(self.field, self.packed))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """The cube map a -> a^3; an additive field automorphism."""
        return self * self * self

    def __eq__(self, other):
        # an int equals an element only where their hashes agree: 0, 1, 2
        if isinstance(other, int):
            return 0 <= other <= 2 and self.packed == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.packed == other.packed and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        # an element of the prime field is packed as its int, so it hashes like one
        return hash(self.packed)

    def __str__(self):
        return self.field._names[self.packed]

    def __repr__(self):
        return f"<GF(3^{self.field.degree}): {self}>"


class _Names(dict):
    """Packed element -> its text, as "1+2*t^2", formatted on first lookup."""
    def __missing__(self, packed):
        digits = packed.to_bytes(packed.bit_length(), "little")
        text = self[packed] = "+".join(_terms(digits)) or "0"
        return text


def _terms(digits):
    """The nonzero terms c t^i of a polynomial in t given by its digits, lowest first."""
    return [str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("t" if i == 1 else f"t^{i}")
            for i, c in enumerate(digits) if c]


def _reduce(value, n):
    """Each of the n bytes of value reduced mod 3."""
    return int.from_bytes(value.to_bytes(n, "little").translate(_MOD3), "little")


def _inverse_packed(field, packed):
    """The packed inverse of a nonzero packed element, from the field's memo
    or, on the first call, from _extended_euclid."""
    inverse = field._inverses.get(packed)
    if inverse is None:
        inverse = field._inverses[packed] = _extended_euclid(field, packed)
    return inverse


def _extended_euclid(field, packed):
    """The packed inverse of a nonzero packed element, by the extended
    Euclidean algorithm over F3[t] on the modulus and the digits, one
    leading digit at a time: it keeps s with s * a = r (mod modulus) and
    stops at a constant r, a unit of F3 and so its own inverse. Run in
    F3[t]/(f) for a reducible f, it ends at r = 0 when a shares a factor
    with f and then returns 0."""
    n = field.degree + 1
    r_prev = int.from_bytes(bytes(field.modulus), "little")
    r, s_prev, s = packed, 0, 1
    while r > 2:
        top = (r.bit_length() - 1) // 8
        lead = r >> 8 * top
        while r_prev.bit_length() > 8 * top:  # r_prev -= c * t^shift * r
            d = (r_prev.bit_length() - 1) // 8
            c, shift = 3 - (r_prev >> 8 * d) * lead % 3, 8 * (d - top)
            r_prev = _reduce(r_prev + (c * r << shift), n)
            s_prev = _reduce(s_prev + (c * s << shift), n)
        r_prev, r, s_prev, s = r, r_prev, s, s_prev
    return _reduce(r * s, n)


def _spread(packed, k, width):
    """The k digits of packed moved to slots of width bytes."""
    buf = bytearray(k * width)
    buf[::width] = packed.to_bytes(k, "little")
    return int.from_bytes(buf, "little")


_new_element = object.__new__
_set_field = FieldElement.field.__set__
_set_packed = FieldElement.packed.__set__
_from_packed = FieldElement._from_packed


def solve_additive_cubic(a_coeff, rhs):
    """All t in GF(3^k) with t^3 + a*t = rhs.

    The map t -> t^3 + a*t is F3-linear (cubing is the Frobenius), so the
    solution set is empty or a coset of the kernel; it is found by Gaussian
    elimination on the k x k matrix of the map over F3, the sum of the
    field's Frobenius matrix and a's multiplication matrix. Results come
    back as a tuple in ascending coefficient order.
    """
    from .kronecker import _scale_matrix  # kronecker imports this module

    if a_coeff.is_zero:
        raise ValueError("linear coefficient must be nonzero")
    field = a_coeff.field
    matrix = [[(f + s) % 3 for f, s in zip(frobenius, scale)] for frobenius, scale
              in zip(field._frobenius, _scale_matrix(field, a_coeff.packed))]
    solutions = _solve_f3(matrix, list(rhs.coeffs))
    return tuple(sorted((field.element(s) for s in solutions), key=lambda e: e.coeffs))


def _solve_f3(matrix, b):
    """All solutions of matrix * x = b over F3 (lists of coefficient tuples)."""
    n = len(matrix)
    aug = [row[:] + [b[i]] for i, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 if aug[row][col] == 1 else 2
        aug[row] = [(x * inv) % 3 for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % 3 for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][n]:
            return []
    free = [c for c in range(n) if c not in pivots]
    solutions = []
    for assignment in itertools.product(range(3), repeat=len(free)):
        x = [0] * n
        for c, v in zip(free, assignment):
            x[c] = v
        for r, c in enumerate(pivots):
            x[c] = (aug[r][n] - sum(aug[r][j] * x[j] for j in free)) % 3
        solutions.append(tuple(x))
    return solutions
