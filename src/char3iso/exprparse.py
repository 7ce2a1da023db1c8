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
"""

from __future__ import annotations

import operator

from .errors import Char3Error, GeneratorUnavailable, ParseError, ZeroDenominator
from .ratrec import RationalFunction, _power as _poly_power, degree
from .series import LaurentSeries

# The highest degree a value in x may reach, and the deepest parentheses may
# nest: the descent recurses once per level, so Python's stack bounds it.
MAX_POWER_DEGREE = 2 ** 16
MAX_NESTING_DEPTH = 100

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _is_uint(text):
    """A run of ASCII digits: str.isdigit alone also takes '²', which int()
    rejects, and '١', which int() reads as 1."""
    return text.isascii() and text.isdigit()


def _tokenize(text):
    """(text, offset) pairs; an empty text marks the end of the input."""
    tokens = []
    i = depth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_uint(ch):
            j = i
            while j < n and _is_uint(text[j]):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        if ch not in "tx+-*/^()":
            raise ParseError(i, f"unexpected character {ch!r}")
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_NESTING_DEPTH:
            raise ParseError(i, f"parentheses nested deeper than {MAX_NESTING_DEPTH}")
        tokens.append((ch, i))
        i += 1
    tokens.append(("", n))
    return tokens


class _Parser:
    """Recursive descent that emits postfix (token, offset) steps: an
    integer literal, 't', 'x', a binary operator, 'neg' for unary minus
    or '^n' for a power."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.steps = []

    def peek(self):
        return self.tokens[self.i][0]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        self.expr()
        text, pos = self.tokens[self.i]
        if text:
            raise ParseError(pos, f"unexpected {text!r}")
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
                raise ParseError(pos, "exponent must be an unsigned integer")
            self.steps.append(("^" + exponent, caret))
        if sign is not None:
            self.steps.append(("neg", sign[1]))

    def atom(self):
        text, pos = self.advance()
        if text == "(":
            self.expr()
            closing, at = self.advance()
            if closing != ")":
                raise ParseError(at, "expected ')'")
        elif _is_uint(text) or text in ("t", "x"):
            self.steps.append((text, pos))
        else:
            raise ParseError(pos, f"expected a value, found {text or 'end of input'!r}")


def _evaluate(steps, field, rational):
    """Run the postfix steps to a field constant or, when `rational`, a
    rational function in x.

    A value is a field constant, a polynomial in x (an exact series) or a
    RationalFunction. Only a quotient with x in it, or an operation on one,
    makes a RationalFunction, so a gcd runs only there.

    An error is kept on the stack as a value, so the one raised is the one
    met first in a walk that evaluates left before right and checks a
    constant's division before its operands."""
    stack = []
    for token, pos in steps:
        if token in _BINARY:
            right = stack.pop()
            left = stack.pop()
            if token == "/" and not rational:
                value = ParseError(pos, "division is not allowed in a field constant")
            elif isinstance(left, Char3Error):
                value = left
            elif isinstance(right, Char3Error):
                value = right
            elif token == "/" and right.is_zero:
                value = ZeroDenominator(f"zero denominator at offset {pos}")
            elif _reach(token, left, right) > MAX_POWER_DEGREE:
                value = ParseError(pos, f"value of degree above {MAX_POWER_DEGREE}")
            else:
                if token == "/" or RationalFunction in (type(left), type(right)):
                    left, right = _rational(left), _rational(right)
                value = _BINARY[token](left, right)
        elif token == "neg" or token[0] == "^":
            value = stack.pop()
            if not isinstance(value, Char3Error):
                value = -value if token == "neg" else _power(value, token[1:], pos, field)
        elif token == "x":
            value = (LaurentSeries.monomial(field, 1) if rational else
                     ParseError(pos, "'x' is not allowed in a field constant"))
        elif token == "t":
            value = field.gen if field.degree >= 2 else GeneratorUnavailable(
                pos, "'t' needs a field extension of degree >= 2")
        else:  # 10 = 1 (mod 3), so a literal is its digit sum mod 3
            value = field.from_int(sum(map(int, token)))
        stack.append(value)
    if isinstance(stack[0], Char3Error):
        raise stack[0]
    if rational and not isinstance(stack[0], (RationalFunction, LaurentSeries)):
        return RationalFunction.constant(field, stack[0])
    return _rational(stack[0])


def _rational(value):
    """A polynomial as a RationalFunction; anything else as it is."""
    return RationalFunction.from_polynomial(value) if isinstance(value, LaurentSeries) else value


def _degrees(value):
    """(deg num, deg den) of a rational function or polynomial; (0, 0) for
    a constant."""
    if isinstance(value, RationalFunction):
        return degree(value.num), degree(value.den)
    if isinstance(value, LaurentSeries):
        return degree(value), 0
    return 0, 0


def _reach(token, left, right):
    """The highest degree of num or den that left op right has before reduction."""
    (ln, ld), (rn, rd) = _degrees(left), _degrees(right)
    if token == "/":
        rn, rd = rd, rn
    return max(ln + rn, ld + rd) if token in "*/" else max(ln + rd, rn + ld, ld + rd)


def _power(base, digits, pos, field):
    """base ** e, e given by its decimal digits; a ParseError at the '^'
    when base has x and the power would pass degree MAX_POWER_DEGREE."""
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
        return ParseError(pos, f"power of degree above {MAX_POWER_DEGREE}")
    return _pow(base, int(e))


def _pow(base, n):
    return _poly_power(base, n) if isinstance(base, LaurentSeries) else base ** n


def parse_field_element(text, field):
    """Evaluate a constant expression (integers, 't', + - * ^, parens)."""
    return _evaluate(_Parser(text).parse(), field, rational=False)


def parse_rational_function(text, field):
    """Evaluate a polynomial or quotient expression in x, in lowest terms."""
    return _evaluate(_Parser(text).parse(), field, rational=True)
