"""Exact arithmetic in GF(3^k) with a polynomial-basis representation.

Elements are coefficient vectors over F3 reduced modulo a monic irreducible
polynomial. Everything is exact and immutable; operations are pure.
"""

from __future__ import annotations

import itertools

from .errors import MixedFields

CHAR = 3

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
}


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod_f3(a, b):
    """Quotient and remainder of coefficient lists over F3, low degree first."""
    a = _trim(a)
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = 1 if b[-1] == 1 else 2
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        d = len(r) - len(b)
        c = (r[-1] * lead_inv) % 3
        q[d] = c
        for i, bc in enumerate(b):
            r[i + d] = (r[i + d] - c * bc) % 3
        r = _trim(r)
    return _trim(q), r


def _is_irreducible_f3(poly):
    """Rabin's test: f of degree k >= 1 is irreducible over F3 exactly when
    t^(3^k) = t (mod f) and gcd(t^(3^d) - t, f) = 1 for d = k/p, p each
    prime dividing k; testing every proper divisor d of k is equivalent.
    Cubing is the Frobenius of F3[t], so t^(3^(i+1)) mod f is t^(3^i) mod f
    with its exponents tripled, reduced mod f again."""
    poly = _trim(poly)
    degree = len(poly) - 1
    if degree < 1:
        return False
    frob = [_poly_divmod_f3([0, 1], poly)[1]]  # frob[i] = t^(3^i) mod f
    for _ in range(degree):
        spread = [0] * (3 * len(frob[-1]))
        spread[::3] = frob[-1]
        frob.append(_poly_divmod_f3(spread, poly)[1])
    for d in [d for d in range(1, degree) if degree % d == 0]:
        a = [(x - y) % 3 for x, y in itertools.zip_longest(frob[d], frob[0], fillvalue=0)]
        b = poly
        while _trim(a):
            a, b = _poly_divmod_f3(b, a)[1], _trim(a)
        if len(b) != 1:
            return False
    return frob[degree] == frob[0]


class FieldParams:
    """GF(3^k) given by extension degree and a monic irreducible modulus.

    Immutable after construction; equality is on (degree, modulus) so any
    two instances of the same field interoperate.
    """

    def __init__(self, degree, modulus=None):
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[degree]
            except KeyError:
                raise ValueError(
                    f"no default modulus for degree {degree}; pass one explicitly"
                ) from None
        modulus = tuple(int(c) % 3 for c in modulus)
        if len(modulus) != degree + 1:
            raise ValueError("modulus degree does not match field degree")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible_f3(modulus):
            raise ValueError("modulus is reducible over F3")
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
        self.zero = FieldElement(self, (0,) * degree)
        self.one = FieldElement(self, (1,) + (0,) * (degree - 1))
        if degree >= 2:
            self.gen = FieldElement(self, (0, 1) + (0,) * (degree - 2))
        else:
            self.gen = None

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def from_int(self, n):
        """The integer n reduced mod 3 as a field constant."""
        return FieldElement(self, (n % 3,) + (0,) * (self.degree - 1))

    def elements(self):
        """All field elements in ascending coefficient order."""
        for coeffs in itertools.product(range(3), repeat=self.degree):
            yield FieldElement(self, coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldParams):
            return NotImplemented
        return self.degree == other.degree and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"FieldParams(3^{self.degree}, modulus={list(self.modulus)})"


class FieldElement:
    """An element of GF(3^k); coordinates in the polynomial basis 1, t, t^2, ..."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(int(c) % 3 for c in coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coordinates, got {len(coeffs)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def _reduced(field, coeffs):
        """Element from a tuple of field.degree ints already in {0, 1, 2}."""
        element = _new_element(FieldElement)
        _set_field(element, field)
        _set_coeffs(element, coeffs)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement._reduced(
            self.field, tuple((a + b) % 3 for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement._reduced(
            self.field, tuple((a - b) % 3 for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement._reduced(self.field, tuple((-a) % 3 for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = self.field.degree
        conv = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        out = [c % 3 for c in conv[:k]]
        for i in range(k, 2 * k - 1):
            c = conv[i] % 3
            if c:
                high = self.field._high_powers[i - k]
                out = [(x + c * h) % 3 for x, h in zip(out, high)]
        return FieldElement._reduced(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
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
        """The extended Euclidean algorithm over F3[t] on the modulus and
        the coefficients: it keeps s with s * self = r (mod modulus) and
        stops at a constant r, a unit of F3 and so its own inverse."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        r_prev, r = list(self.field.modulus), _trim(self.coeffs)
        s_prev, s = [], [1]
        while len(r) > 1:
            q, rem = _poly_divmod_f3(r_prev, r)
            r_prev, r = r, rem
            qs = [0] * (len(q) + len(s) - 1)
            for i, a in enumerate(q):
                for j, b in enumerate(s):
                    qs[i + j] += a * b
            s_prev, s = s, [(x - y) % 3 for x, y in
                            itertools.zip_longest(s_prev, qs, fillvalue=0)]
        # deg s < deg modulus, so s has at most k coefficients
        coeffs = [(r[0] * c) % 3 for c in s] + [0] * (self.field.degree - len(s))
        return FieldElement._reduced(self.field, tuple(coeffs))

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
            if not 0 <= other <= 2:
                return False
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # an element of the prime field equals its int, so it hashes like one
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.degree, self.field.modulus, self.coeffs))

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"<GF(3^{self.field.degree}): {self}>"


_new_element = object.__new__
_set_field = FieldElement.field.__set__
_set_coeffs = FieldElement.coeffs.__set__


def solve_additive_cubic(a_coeff, rhs):
    """All t in GF(3^k) with t^3 + a*t = rhs.

    The map t -> t^3 + a*t is F3-linear (cubing is the Frobenius), so the
    solution set is empty or a coset of the kernel; it is found by Gaussian
    elimination on the k x k matrix of the map over F3. Results come back
    as a tuple in ascending coefficient order.
    """
    if a_coeff.is_zero:
        raise ValueError("linear coefficient must be nonzero")
    field = a_coeff.field
    k = field.degree
    columns = []
    for j in range(k):
        e = FieldElement(field, tuple(1 if i == j else 0 for i in range(k)))
        image = e.frobenius() + a_coeff * e
        columns.append(image.coeffs)
    matrix = [[columns[j][i] for j in range(k)] for i in range(k)]
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
