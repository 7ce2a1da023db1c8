"""Parser for field constants, polynomials, and rational functions.

Grammar (whitespace between tokens is ignored):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? atom ('^' UINT)?
    atom   := UINT | 't' | 'x' | '(' expr ')'

Implicit multiplication ("2x") is rejected. Integer literals may be
arbitrarily large and are reduced mod 3. 't' is the generator of the field
extension and needs degree >= 2; 'x' is only meaningful when parsing a
polynomial or rational function. Error offsets are 0-based byte positions.

The parser turns the whole text into postfix steps before anything is
evaluated, so a syntax error anywhere wins over an error of value.
"""

from __future__ import annotations

import operator

from .errors import Char3Error, GeneratorUnavailable, ParseError, ZeroDenominator
from .ratrec import Polynomial, RationalFunction

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _tokenize(text):
    """(text, offset) pairs; an empty text marks the end of the input."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        if ch not in "tx+-*/^()":
            raise ParseError(i, f"unexpected character {ch!r}")
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
            if not exponent.isdigit():
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
        elif text.isdigit() or text in ("t", "x"):
            self.steps.append((text, pos))
        else:
            raise ParseError(pos, f"expected a value, found {text or 'end of input'!r}")


def _evaluate(steps, field, rational):
    """Run the postfix steps to a field constant or, when `rational`, a
    rational function in x.

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
            else:
                value = _BINARY[token](left, right)
        elif token == "neg" or token[0] == "^":
            value = stack.pop()
            if not isinstance(value, Char3Error):
                value = -value if token == "neg" else value ** int(token[1:])
        elif token == "x":
            value = (RationalFunction.x(field) if rational else
                     ParseError(pos, "'x' is not allowed in a field constant"))
        else:
            if token == "t":
                value = field.gen if field.degree >= 2 else GeneratorUnavailable(
                    pos, "'t' needs a field extension of degree >= 2")
            else:
                value = field.from_int(int(token))
            if rational and not isinstance(value, Char3Error):
                value = RationalFunction.constant(field, value)
        stack.append(value)
    if isinstance(stack[0], Char3Error):
        raise stack[0]
    return stack[0]


def parse_field_element(text, field):
    """Evaluate a constant expression (integers, 't', + - * ^, parens)."""
    return _evaluate(_Parser(text).parse(), field, rational=False)


def parse_rational_function(text, field):
    """Evaluate a polynomial or quotient expression in x, in lowest terms."""
    return _evaluate(_Parser(text).parse(), field, rational=True)


def parse_polynomial(text, field):
    """Like parse_rational_function but requires denominator one."""
    rf = parse_rational_function(text, field)
    if rf.den != Polynomial.one(field):
        raise ParseError(0, "expected a polynomial, found a quotient")
    return rf.num
