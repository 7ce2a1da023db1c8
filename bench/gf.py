"""Arithmetic for checking char3iso's outputs, written apart from the program.

Nothing here imports char3iso. Field elements of GF(3^k) are ints in
[0, 3^k) whose base-3 digits, least significant first, are the coordinates
in the basis 1, t, t^2, ...; products go through log/antilog tables.
Polynomials in x are lists of such ints, lowest degree first; a truncated
series is a dict {exponent: nonzero element}.
"""

from __future__ import annotations

import itertools


def _digits(n, k):
    out = []
    for _ in range(k):
        n, d = divmod(n, 3)
        out.append(d)
    return out


def _undigits(ds):
    n = 0
    for d in reversed(ds):
        n = 3 * n + d
    return n


def _f3_poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] * b[-1] % 3  # b monic up to sign: b[-1] is its own inverse
        if c:
            d = len(a) - len(b)
            for i, bc in enumerate(b):
                a[i + d] = (a[i + d] - c * bc) % 3
        a.pop()
    return a


def irreducible_over_f3(poly):
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(3), repeat=d):
            if not any(_f3_poly_rem(poly, list(tail) + [1])):
                return False
    return deg >= 1


class Field:
    """GF(3^k) = F3[t]/(modulus), modulus given low coefficient first."""

    def __init__(self, modulus):
        modulus = tuple(int(c) % 3 for c in modulus)
        if modulus[-1] != 1 or not irreducible_over_f3(modulus):
            raise ValueError(f"modulus {modulus} is not monic irreducible")
        self.k = k = len(modulus) - 1
        self.q = q = 3 ** k
        self.modulus = modulus

        def slow_mul(a, b):
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(_digits(a, k)):
                for j, y in enumerate(_digits(b, k)):
                    conv[i + j] += x * y
            return _undigits(_f3_poly_rem([c % 3 for c in conv], modulus)[:k] + [0] * k)

        self.exp = None
        for g in range(2, q):
            exp, x = [], 1
            for _ in range(q - 1):
                exp.append(x)
                x = slow_mul(x, g)
            if len(set(exp)) == q - 1:
                self.exp = exp + exp
                break
        self.log = [0] * q
        for i, x in enumerate(self.exp[: q - 1]):
            self.log[x] = i
        self.neg = [_undigits([(-d) % 3 for d in _digits(a, k)]) for a in range(q)]
        self.add_table = [_undigits([(x + y) % 3 for x, y in zip(_digits(a, k), _digits(b, k))])
                          for a in range(q) for b in range(q)]

    def add(self, a, b):
        return self.add_table[a * self.q + b]

    def sub(self, a, b):
        return self.add_table[a * self.q + self.neg[b]]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def cube(self, a):
        return self.mul(a, self.mul(a, a))

    def from_int(self, n):
        return n % 3

    @property
    def t(self):
        return 3 if self.k >= 2 else None

    def text(self, a):
        """The element in the command-line grammar, e.g. 2+t+2*t^3."""
        terms = []
        for i, d in enumerate(_digits(a, self.k)):
            if d:
                var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
                terms.append(str(d) if not var else (var if d == 1 else f"{d}*{var}"))
        return "+".join(terms) or "0"

    def cubic_roots(self, A, rhs):
        """All t with t^3 + A t = rhs, by brute force over the field."""
        return [t for t in range(self.q) if self.add(self.cube(t), self.mul(A, t)) == rhs]


# ---- polynomials ------------------------------------------------------------

def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(F, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return ptrim(F.add(x, y) for x, y in zip(a, b))


def pneg(F, a):
    return [F.neg[x] for x in a]


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pderiv(F, a):
    return ptrim(F.mul(F.from_int(i), c) for i, c in enumerate(a))[1:] if len(a) > 1 else []


def pscale(F, a, c):
    return ptrim(F.mul(c, x) for x in a)


def rat_equal(F, r1, r2):
    """(n1, d1) and (n2, d2) are the same rational function."""
    return pmul(F, r1[0], r2[1]) == pmul(F, r2[0], r1[1])


def rat_derivative(F, r):
    n, d = r
    return (padd(F, pmul(F, pderiv(F, n), d), pneg(F, pmul(F, n, pderiv(F, d)))),
            pmul(F, d, d))


def poly_text(F, p):
    """A polynomial in x in the command-line grammar."""
    terms = []
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            c = F.text(p[i])
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if not xs:
                terms.append(f"({c})")
            else:
                terms.append(xs if c == "1" else f"({c})*{xs}")
    return "+".join(terms) or "0"


# ---- truncated series ---------------------------------------------------------

def series_of_rational(F, r, prec):
    """Laurent expansion of n/d at x = 0, exact below x^prec, as a dict."""
    n, d = (ptrim(r[0]), ptrim(r[1]))
    shift = 0
    while d and d[0] == 0:
        d = d[1:]
        shift += 1
    while n and n[0] == 0 and shift:
        n = n[1:]
        shift -= 1
    count = prec + shift
    d0_inv = F.inv(d[0])
    q = []
    for j in range(max(count, 0)):
        acc = n[j] if j < len(n) else 0
        for i in range(max(0, j - len(d) + 1), j):
            if q[i] and d[j - i]:
                acc = F.sub(acc, F.mul(q[i], d[j - i]))
        q.append(F.mul(acc, d0_inv))
    return {j - shift: c for j, c in enumerate(q) if c}


def series_mul(F, a, b, prec):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < prec:
                out[e] = F.add(out.get(e, 0), F.mul(ca, cb))
    return {e: c for e, c in out.items() if c}


def series_add(F, *terms):
    out = {}
    for s in terms:
        for e, c in s.items():
            out[e] = F.add(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c}


def series_scale(F, s, c):
    return {e: F.mul(c, v) for e, v in s.items() if F.mul(c, v)}


def series_deriv(F, s):
    return {e - 1: F.mul(F.from_int(e), c) for e, c in s.items() if e % 3}


def series_cube(F, s):
    return {3 * e: F.cube(c) for e, c in s.items()}


def series_truncate(s, prec):
    return {e: c for e, c in s.items() if e < prec}


def linear_complexity(F, seq):
    """Berlekamp-Massey: (L, C) for the shortest linear recurrence of seq,
    sum_i C[i] seq[n - i] = 0 for L <= n < len(seq), with C[0] = 1."""
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    for n, s in enumerate(seq):
        d = s
        for i in range(1, L + 1):
            if i < len(C) and C[i]:
                d = F.add(d, F.mul(C[i], seq[n - i]))
        if d == 0:
            m += 1
            continue
        coef = F.mul(d, F.inv(b))
        T = list(C)
        shifted = [0] * m + [F.mul(coef, x) for x in B]
        C = C + [0] * max(0, len(shifted) - len(C))
        for i, x in enumerate(shifted):
            C[i] = F.sub(C[i], x)
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    return L, ptrim(C)


# ---- the command-line grammar -------------------------------------------------

class _Parser:
    """Integers, t, x, + - * / ^ and parentheses; values are rational
    functions (num, den) with polynomial parts."""

    def __init__(self, F, text):
        self.F, self.text, self.pos = F, text.replace(" ", ""), 0

    def parse(self):
        value = self.expr()
        if self.pos != len(self.text):
            raise ValueError(f"unexpected {self.text[self.pos:]!r} in {self.text!r}")
        return value

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        F = self.F
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            if op == "-":
                rhs = (pneg(F, rhs[0]), rhs[1])
            value = (padd(F, pmul(F, value[0], rhs[1]), pmul(F, rhs[0], value[1])),
                     pmul(F, value[1], rhs[1]))
        return value

    def term(self):
        F = self.F
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            if op == "/":
                rhs = (rhs[1], rhs[0])
            value = (pmul(F, value[0], rhs[0]), pmul(F, value[1], rhs[1]))
        return value

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            num, den = self.factor()
            return pneg(self.F, num), den
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            e = int(self.text[start:self.pos])
            num, den = [1], [1]
            for _ in range(e):
                num, den = pmul(self.F, num, base[0]), pmul(self.F, den, base[1])
            return num, den
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ValueError(f"missing ')' in {self.text!r}")
            self.pos += 1
            return value
        if ch == "x":
            self.pos += 1
            return [0, 1], [1]
        if ch == "t":
            self.pos += 1
            return ptrim([self.F.t]), [1]
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"unexpected {ch!r} in {self.text!r}")
        return ptrim([int(self.text[start:self.pos]) % 3]), [1]


def parse_rational(F, text):
    num, den = _Parser(F, text).parse()
    if not ptrim(den):
        raise ValueError(f"zero denominator in {text!r}")
    return ptrim(num), ptrim(den)


def parse_element(F, text):
    num, den = parse_rational(F, text)
    if len(num) > 1 or len(den) != 1:
        raise ValueError(f"{text!r} is not a field constant")
    return F.mul(num[0] if num else 0, F.inv(den[0]))
