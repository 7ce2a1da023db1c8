import random

import pytest

from char3iso import (
    GeneratorUnavailable,
    ParseError,
    ZeroDenominator,
    parse_rational_function,
)
from char3iso.exprparse import parse_field_element, parse_polynomial
from char3iso.ratrec import Polynomial

from helpers import random_rational


# ---- field constants ------------------------------------------------------


def test_constant_goldens(f3, f9):
    assert parse_field_element("2", f3) == f3.from_int(2)
    assert parse_field_element("2+t", f9) == f9.element((2, 1))
    assert parse_field_element("-1", f3) == f3.from_int(2)
    assert parse_field_element("12345", f3) == f3.from_int(12345 % 3)
    assert parse_field_element("2^4", f3) == f3.one
    assert parse_field_element("t*t", f9) == f9.from_int(2)
    assert parse_field_element("(1+t)*(1-t)", f9) == f9.from_int(2)


def test_generator_needs_extension(f3):
    with pytest.raises(GeneratorUnavailable) as err:
        parse_field_element("t", f3)
    assert err.value.offset == 0


def test_variable_banned_in_constants(f3):
    with pytest.raises(ParseError) as err:
        parse_field_element("1+x", f3)
    assert err.value.offset == 2


def test_division_banned_in_constants(f3):
    with pytest.raises(ParseError) as err:
        parse_field_element("1/2", f3)
    assert err.value.offset == 1


# ---- rational functions ------------------------------------------------------


def test_rational_goldens(f3):
    rf = parse_rational_function("x^2/(x^9+x^3-1)", f3)
    assert rf.num == Polynomial(f3, [0, 0, 1])
    assert rf.den == Polynomial(f3, [2, 0, 0, 1, 0, 0, 0, 0, 0, 1])

    rf = parse_rational_function("x", f3)
    assert rf.num == Polynomial.x(f3)
    assert rf.den == Polynomial.one(f3)


def test_rational_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        parse_rational_function("1/(x-x)", f3)


def test_rational_reduces_to_lowest_terms(f3):
    rf = parse_rational_function("(x^2-1)/(x-1)", f3)
    assert rf == parse_rational_function("x+1", f3)


def test_polynomial_rejects_quotient(f3):
    with pytest.raises(ParseError):
        parse_polynomial("1/x", f3)


# ---- grammar details -----------------------------------------------------------


def test_precedence_ast(f3):
    # (1+2)*x^2 would be 0 and 1+(2*x)^2 would be x^2+1
    assert str(parse_rational_function("1+2*x^2", f3)) == "2*x^2+1"


def test_unary_minus_binds_after_power(f3):
    # (-x)^2 would be x^2
    assert str(parse_rational_function("-x^2", f3)) == "2*x^2"


def test_syntax_error_wins_over_value_error(f3):
    # 't' over GF(3) and the zero denominator come before the stray ')'
    with pytest.raises(ParseError) as err:
        parse_rational_function("t+)", f3)
    assert type(err.value) is ParseError and err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_rational_function("1/(x-x))", f3)
    assert type(err.value) is ParseError and err.value.offset == 7


@pytest.mark.parametrize("text, rational, error, offset", [
    # a constant's division is rejected before its operands are looked at
    ("x/1", False, ParseError, 1),
    ("(1/2)/x", False, ParseError, 5),
    # otherwise the left operand's error comes first
    ("x+1/2", False, ParseError, 0),
    ("t/(x-x)", True, GeneratorUnavailable, 0),
    ("1/(x-x)+t", True, ZeroDenominator, None),
])
def test_first_value_error_in_evaluation_order(f3, text, rational, error, offset):
    parse = parse_rational_function if rational else parse_field_element
    with pytest.raises(error) as err:
        parse(text, f3)
    assert type(err.value) is error
    assert getattr(err.value, "offset", None) == offset
    if error is ZeroDenominator:
        assert str(err.value) == "zero denominator at offset 1"


def test_minus_both_unary_and_binary(f3):
    assert parse_field_element("2--1", f3) == f3.from_int(0)
    assert parse_field_element("2*-1", f3) == f3.from_int(1)


def test_whitespace_tolerated(f3):
    assert parse_field_element(" 1 + 2 ", f3) == f3.zero


def test_implicit_multiplication_rejected(f3):
    with pytest.raises(ParseError) as err:
        parse_rational_function("2x", f3)
    assert err.value.offset == 1


def test_unbalanced_paren(f3):
    with pytest.raises(ParseError) as err:
        parse_rational_function("(1+x", f3)
    assert err.value.offset == 4


def test_negative_exponent_rejected(f3):
    with pytest.raises(ParseError) as err:
        parse_rational_function("x^-1", f3)
    assert err.value.offset == 2


def test_unknown_character(f3):
    with pytest.raises(ParseError) as err:
        parse_rational_function("x + y", f3)
    assert err.value.offset == 4


def test_empty_input(f3):
    with pytest.raises(ParseError):
        parse_rational_function("", f3)


# ---- round trips -----------------------------------------------------------------


def test_field_element_print_parse_round_trip(f9):
    field27 = __import__("char3iso").FieldParams(3)
    for field in (f9, field27):
        for a in field.elements():
            assert parse_field_element(str(a), field) == a


def test_rational_print_parse_round_trip(f3, f9):
    rng = random.Random(60013)
    for _ in range(300):
        field = f9 if rng.random() < 0.5 else f3
        rf = random_rational(rng, field)
        assert parse_rational_function(str(rf), field) == rf


def test_rational_with_pole_round_trip(f3):
    rf = parse_rational_function("(2*x+2)/x", f3)
    assert parse_rational_function(str(rf), f3) == rf
