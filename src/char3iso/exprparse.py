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

The parser turns the whole text into postfix steps before anything is
evaluated, so a syntax error anywhere wins over an error of value.

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
    """Recursive descent that emits postfix (token, index) steps: an
    integer literal, 't', 'x', a binary operator, 'neg' for unary minus
    or '^n' for a power, with the index of its token in the text."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.steps = []
        self._starts = None

    def offset(self, index):
        """The character offset of token `index` (the end's is the text's
        length); the text is scanned for offsets once, on the first call,
        so a text that parses needs none."""
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return self._starts[index]

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        """The next token's text and index."""
        self.i += 1
        return self.tokens[self.i - 1], self.i - 1

    def parse(self):
        self.expr()
        text = self.tokens[self.i]
        if text:
            raise ParseError(self.offset(self.i), f"unexpected {text!r}")
        return self.steps

    def expr(self):
        self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            self.term()
            self.steps.append(op)

    def term(self):
        self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            self.factor()
            self.steps.append(op)

    def factor(self):
        sign = self.advance() if self.peek() == "-" else None
        self.atom()
        if self.peek() == "^":
            _, caret = self.advance()
            exponent, pos = self.advance()
            if not _is_uint(exponent):
                raise ParseError(self.offset(pos), "exponent must be an unsigned integer")
            self.steps.append(("^" + exponent, caret))
        if sign is not None:
            self.steps.append(("neg", sign[1]))

    def atom(self):
        text, pos = self.advance()
        if text == "(":
            self.expr()
            closing, at = self.advance()
            if closing != ")":
                raise ParseError(self.offset(at), "expected ')'")
        elif _is_uint(text) or text in ("t", "x"):
            self.steps.append((text, pos))
        else:
            raise ParseError(self.offset(pos),
                             f"expected a value, found {text or 'end of input'!r}")


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


def _evaluate(parser, field, rational):
    """Run the parser's postfix steps to a field constant or, when
    `rational`, a rational function in x.

    A value is a field constant, a sum of monomials in x (a _Sum), a
    polynomial in x (an exact series) or a RationalFunction. 'x' is a
    _Sum; a sum, a difference, a unary minus, a constant factor, a
    one-term factor and a power of one term update a _Sum in place and
    make no series, so a sum of N terms costs N dict updates. Only a
    product of two longer values and a power of one make a series, and
    a sum that meets a series takes its terms once into a _Sum. Only a
    quotient with x in it, or an operation on one, makes a
    RationalFunction, so a gcd runs only there. The final value becomes
    one run.

    An error is kept on the stack as a value, so the one raised is the one
    met first in a walk that evaluates left before right and checks a
    constant's division before its operands. Only an error reads a step's
    offset, from parser.offset."""
    stack, offset = [], parser.offset
    for token, pos in parser.parse():
        if token in _BINARY:
            right = stack.pop()
            left = stack.pop()
            if token == "/" and not rational:
                value = ParseError(offset(pos), "division is not allowed in a field constant")
            elif isinstance(left, Char3Error):
                value = left
            elif isinstance(right, Char3Error):
                value = right
            elif token == "/" and right.is_zero:
                value = ZeroDenominator(f"zero denominator at offset {offset(pos)}")
            elif _reach(token, left, right) > MAX_POWER_DEGREE:
                value = ParseError(offset(pos), f"value of degree above {MAX_POWER_DEGREE}")
            elif token == "/" or RationalFunction in (type(left), type(right)):
                value = _BINARY[token](_rational(left), _rational(right))
            elif type(left) is type(right) is FieldElement:
                value = _BINARY[token](left, right)
            elif token == "*":
                value = _product(left, right)
            else:
                value = _sum(token, left, right, field)
        elif token == "neg" or token[0] == "^":
            value = stack.pop()
            if isinstance(value, _Sum) and token == "neg":
                value = value.times(0, 2)  # -1 is packed as 2
            elif not isinstance(value, Char3Error):
                value = -value if token == "neg" else _power(value, token[1:], field)
                if value is None:
                    value = ParseError(offset(pos), f"power of degree above {MAX_POWER_DEGREE}")
        elif token == "x":
            value = (_Sum(field, {1: 1}) if rational else
                     ParseError(offset(pos), "'x' is not allowed in a field constant"))
        elif token == "t":
            value = field.gen if field.degree >= 2 else GeneratorUnavailable(
                offset(pos), "'t' needs a field extension of degree >= 2")
        else:  # 10 = 1 (mod 3), so a literal is its digit sum mod 3
            value = field.from_int(sum(map(int, token)))
        stack.append(value)
    if isinstance(stack[0], Char3Error):
        raise stack[0]
    if rational and isinstance(stack[0], FieldElement):
        return RationalFunction.constant(field, stack[0])
    return _rational(stack[0])


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
    return _evaluate(_Parser(text), field, rational=False)


def parse_rational_function(text, field):
    """Evaluate a polynomial or quotient expression in x, in lowest terms."""
    return _evaluate(_Parser(text), field, rational=True)
