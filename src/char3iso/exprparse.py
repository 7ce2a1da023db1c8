"""Parser for field constants, polynomials, and rational functions.

Grammar (whitespace between tokens is ignored):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? atom ('^' UINT)?
    atom   := UINT | 't' | 'x' | '(' expr ')'

Implicit multiplication ("2x") is rejected. An integer literal (UINT) is a
run of the ASCII digits 0-9; it may be arbitrarily large and is reduced
mod 3. 't' is the generator of the field extension and needs degree >= 2;
'x' is only meaningful when parsing a polynomial or rational function.
An exponent may be arbitrarily large on a field constant, which is
evaluated in the field, but no value in x may pass degree MAX_POWER_DEGREE
in numerator or denominator, and parentheses nest at most MAX_NESTING_DEPTH
deep. Error offsets are 0-based character offsets (code points, not bytes).

The parser evaluates as it reads, in one pass. A syntax error is raised
where it is met, and an error of value is held as a value until the whole
text has parsed, so a syntax error anywhere wins over an error of value.
A malformed text so costs the evaluation of what comes before its first
syntax error.

A value is a field constant, a sum of monomials in x, an exact series or a
RationalFunction. A sum accumulates in place, in a dict from exponent to
packed coefficient with its exact degree, so a polynomial's text costs its
terms: '+', '-', unary minus, a constant or one-term factor and a power of
one term update that dict and make no series. The kernel runs only for a
product of two longer values, a power of one, and a quotient, and the
final value becomes one run.
"""

from __future__ import annotations

import heapq
import operator
import re

from . import kronecker
from .errors import Char3Error, GeneratorUnavailable, ParseError, ZeroDenominator
from .gf3field import FieldElement, _reduce
from .ratrec import RationalFunction, _power as _poly_power, degree
from .series import INF, LaurentSeries, _made

# The highest degree a value in x may reach, and the deepest parentheses may
# nest: the descent recurses once per level, so Python's stack bounds it.
MAX_POWER_DEGREE = 2 ** 16
MAX_NESTING_DEPTH = 100

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _is_uint(text):
    """A run of ASCII digits: str.isdigit alone also takes '²', which int()
    rejects, and '١', which int() reads as 1."""
    return text.isascii() and text.isdigit()


# A token is a run of ASCII digits or one other character that is not
# whitespace; \s matches exactly the characters str.isspace does.
_TOKEN = re.compile(r"[0-9]+|\S")
_UNEXPECTED = re.compile(r"[^\s0-9tx+\-*/^()]")


def _tokenize(text):
    """The token texts; an empty text marks the end of the input. Only an
    error needs their offsets, which _Parser.offset finds.

    The first error in the text is raised: an unexpected character, or the
    parenthesis that nests past MAX_NESTING_DEPTH."""
    bad = _UNEXPECTED.search(text)
    end = len(text) if bad is None else bad.start()
    if text.count("(", 0, end) > MAX_NESTING_DEPTH:  # else no parenthesis can nest that deep
        depth = 0
        for paren in re.finditer(r"[()]", text[:end]):
            depth += 1 if paren[0] == "(" else -1
            if depth > MAX_NESTING_DEPTH:
                raise ParseError(paren.start(),
                                 f"parentheses nested deeper than {MAX_NESTING_DEPTH}")
    if bad is not None:
        raise ParseError(end, f"unexpected character {bad[0]!r}")
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent that evaluates as it reads: expr, term, factor and
    atom each return the value of what they read, a field constant or,
    when `rational`, a value in x. 'x' is a _Sum; a sum that meets a
    series takes its terms once into a _Sum, and only a quotient with x in
    it, or an operation on one, makes a RationalFunction, so a gcd runs
    only there.

    An error of value is kept as a value, so the one raised is the one met
    first in an evaluation of left before right that checks a constant's
    division before its operands. Only an error reads a token's offset."""

    def __init__(self, text, field, rational):
        self.text, self.field, self.rational = text, field, rational
        self.tokens = _tokenize(text)
        self.i = 0
        self._starts = None

    def offset(self, index):
        """The character offset of token `index` (the end's is the text's
        length); the text is scanned for offsets once, on the first call,
        so a text that parses needs none."""
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return self._starts[index]

    def parse(self):
        """The text's value, a RationalFunction when `rational`."""
        value = self.expr()
        if text := self.tokens[self.i]:
            raise ParseError(self.offset(self.i), f"unexpected {text!r}")
        if isinstance(value, Char3Error):
            raise value
        if self.rational and isinstance(value, FieldElement):
            return RationalFunction.constant(self.field, value)
        return _rational(value)

    def expr(self):
        value = self.term()
        while (token := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            value = self.binary(token, self.i - 1, value, self.term())
        return value

    def term(self):
        value = self.factor()
        while (token := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            value = self.binary(token, self.i - 1, value, self.factor())
        return value

    def factor(self):
        sign = self.tokens[self.i] == "-"
        self.i += sign
        value = self.atom()
        if self.tokens[self.i] == "^":
            caret, exponent = self.i, self.tokens[self.i + 1]
            self.i += 2
            if not _is_uint(exponent):
                raise ParseError(self.offset(caret + 1), "exponent must be an unsigned integer")
            if not isinstance(value, Char3Error):
                value = _power(value, exponent, self.field)
                if value is None:
                    value = ParseError(self.offset(caret),
                                       f"power of degree above {MAX_POWER_DEGREE}")
        if sign and not isinstance(value, Char3Error):
            value = value.times(0, 2) if isinstance(value, _Sum) else -value  # -1 is packed as 2
        return value

    def atom(self):
        text, pos = self.tokens[self.i], self.i
        self.i += 1
        if text == "(":
            value = self.expr()
            if self.tokens[self.i] != ")":
                raise ParseError(self.offset(self.i), "expected ')'")
            self.i += 1
            return value
        if _is_uint(text):  # 10 = 1 (mod 3), so a literal is its digit sum mod 3
            return self.field.from_int(sum(map(int, text)))
        if text == "x":
            return (_Sum(self.field, {1: 1}) if self.rational else
                    ParseError(self.offset(pos), "'x' is not allowed in a field constant"))
        if text == "t":
            return self.field.gen if self.field.degree >= 2 else GeneratorUnavailable(
                self.offset(pos), "'t' needs a field extension of degree >= 2")
        raise ParseError(self.offset(pos), f"expected a value, found {text or 'end of input'!r}")

    def binary(self, token, index, left, right):
        """left op right, op the binary operator `token` at token `index`."""
        if token == "/" and not self.rational:
            return ParseError(self.offset(index), "division is not allowed in a field constant")
        if isinstance(left, Char3Error):
            return left
        if isinstance(right, Char3Error):
            return right
        if token == "/" and right.is_zero:
            return ZeroDenominator(f"zero denominator at offset {self.offset(index)}")
        if _reach(token, left, right) > MAX_POWER_DEGREE:
            return ParseError(self.offset(index), f"value of degree above {MAX_POWER_DEGREE}")
        if token == "/" or RationalFunction in (type(left), type(right)):
            return _BINARY[token](_rational(left), _rational(right))
        if type(left) is type(right) is FieldElement:
            return _BINARY[token](left, right)
        if token == "*":
            return _product(left, right)
        return _sum(token, left, right, self.field)


class _Sum:
    """A sum of monomials in x, built in place: `terms` maps each exponent
    to its nonzero packed coefficient, so a cancelled term leaves the dict,
    and `tops` is a heap of the negated exponents that may still hold
    cancelled ones, which degree() drops from its top. A term costs one
    dict update and at most one heap push, and the degree is exact."""

    __slots__ = ("field", "terms", "tops")

    def __init__(self, field, terms):
        self.field, self.terms, self.tops = field, terms, [-e for e in terms]
        heapq.heapify(self.tops)

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """The exact degree; -1 for zero."""
        terms, tops = self.terms, self.tops
        while tops and -tops[0] not in terms:
            heapq.heappop(tops)
        return -tops[0] if tops else -1

    def add(self, pairs, factor):
        """Add factor times each (exponent, packed) pair; factor 2 subtracts."""
        terms, tops, k = self.terms, self.tops, self.field.degree
        for e, p in pairs:
            old = terms.get(e)
            if old is None:
                terms[e] = p if factor == 1 else _reduce(2 * p, k)
                heapq.heappush(tops, -e)
            elif total := _reduce(old + factor * p, k):
                terms[e] = total
            else:
                del terms[e]
        return self

    def times(self, shift, packed):
        """Multiply by c x^shift, c the constant packed as `packed`."""
        if not packed:
            self.terms, self.tops = {}, []
        elif packed != 1 or shift:
            field, c = self.field, FieldElement._from_packed(self.field, packed)
            self.terms = {e + shift: p if packed == 1 else
                          (c * FieldElement._from_packed(field, p)).packed
                          for e, p in self.terms.items()}
            self.tops = [top - shift for top in self.tops]
        return self

    def monomial(self):
        """(exponent, packed coefficient) of a value with at most one term,
        zero as (0, 0); None for a longer sum."""
        if len(self.terms) > 1:
            return None
        return next(iter(self.terms.items()), (0, 0))

    def series(self):
        """The sum as one exact series."""
        field, terms = self.field, self.terms
        if not terms:
            return LaurentSeries.zero(field)
        lo = min(terms)
        run = [0] * (self.degree() - lo + 1)
        for e, p in terms.items():
            run[e - lo] = p
        return _made(field, lo, tuple(kronecker._columns(run, field.degree)), INF)


def _sum(token, left, right, field):
    """left + right or left - right with neither a RationalFunction: the
    larger _Sum of a '+' takes the other value's terms, and a '-' adds the
    right value's negated terms to the left one."""
    if token == "+" and isinstance(right, _Sum) and not (
            isinstance(left, _Sum) and len(left.terms) >= len(right.terms)):
        left, right = right, left
    if not isinstance(left, _Sum):
        left = _Sum(field, dict(_terms(left)))
    return left.add(_terms(right), 2 if token == "-" else 1)


def _terms(value):
    """The (exponent, packed) pairs of a constant, _Sum or series."""
    if isinstance(value, FieldElement):
        return ((0, value.packed),) if value.packed else ()
    return value.terms.items() if isinstance(value, _Sum) else value._terms()


def _product(left, right):
    """left * right with neither a RationalFunction nor both constants: a
    _Sum times a constant or one term is scaled in place; any other pair
    is a series product, which scales a one-term run and runs the kernel
    only for two longer ones."""
    for value, factor in ((left, right), (right, left)):
        if isinstance(value, _Sum):
            if isinstance(factor, FieldElement):
                return value.times(0, factor.packed)
            term = factor.monomial() if isinstance(factor, _Sum) else None
            if term is not None:
                return value.times(*term)
    return _polynomial(left) * _polynomial(right)


def _polynomial(value):
    """A _Sum as one exact series; anything else as it is."""
    return value.series() if isinstance(value, _Sum) else value


def _rational(value):
    """A polynomial as a RationalFunction; anything else as it is."""
    if isinstance(value, (_Sum, LaurentSeries)):
        return RationalFunction.from_polynomial(_polynomial(value))
    return value


def _degrees(value):
    """(deg num, deg den) of a rational function or polynomial; (0, 0) for
    a constant."""
    if isinstance(value, RationalFunction):
        return degree(value.num), degree(value.den)
    if isinstance(value, _Sum):
        return value.degree(), 0
    if isinstance(value, LaurentSeries):
        return degree(value), 0
    return 0, 0


def _reach(token, left, right):
    """The highest degree of num or den that left op right has before reduction."""
    (ln, ld), (rn, rd) = _degrees(left), _degrees(right)
    if token == "/":
        rn, rd = rd, rn
    return max(ln + rn, ld + rd) if token in "*/" else max(ln + rd, rn + ld, ld + rd)


def _power(base, digits, field):
    """base ** e, e given by its decimal digits; None when base has x and
    the power would pass degree MAX_POWER_DEGREE."""
    degree = max(_degrees(base))
    e = digits.lstrip("0") or "0"
    if degree == 0 and e != "0":
        # c^e = c^((e-1) mod (q-1) + 1) for a field constant c and e >= 1;
        # e is read 500 digits at a time, as int() refuses over 4,300 digits
        m, r = field.order - 1, 0
        for i in range(0, len(e), 500):
            r = (r * 10 ** len(e[i:i + 500]) + int(e[i:i + 500])) % m
        return _pow(base, r or m)
    if len(e) > len(str(MAX_POWER_DEGREE)) or degree * int(e) > MAX_POWER_DEGREE:
        return None
    return _pow(base, int(e))


def _pow(base, n):
    """base ** n; a power of one term stays a _Sum, of a longer one a series."""
    if isinstance(base, _Sum):
        term = base.monomial()
        if term is None:
            return _poly_power(base.series(), n)
        e, packed = term
        if packed > 1 or not n:  # 1^n = 1, 0^n = 0 for n >= 1, and 0^0 = 1
            packed = (FieldElement._from_packed(base.field, packed) ** n).packed
        return _Sum(base.field, {e * n: packed} if packed else {})
    return _poly_power(base, n) if isinstance(base, LaurentSeries) else base ** n


def parse_field_element(text, field):
    """Evaluate a constant expression (integers, 't', + - * ^, parens)."""
    return _Parser(text, field, rational=False).parse()


def parse_rational_function(text, field):
    """Evaluate a polynomial or quotient expression in x, in lowest terms."""
    return _Parser(text, field, rational=True).parse()
