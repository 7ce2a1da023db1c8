import argparse
import importlib.util
import random
from pathlib import Path

import pytest

from char3iso import (
    FieldParams,
    GeneratorUnavailable,
    ParseError,
    ZeroDenominator,
    parse_rational_function,
)
from char3iso import exprparse, kronecker, ratrec
from char3iso.cli import _parse_field
from char3iso.exprparse import parse_field_element
from char3iso.ratrec import RationalFunction, degree
from char3iso.series import LaurentSeries

from helpers import parse_polynomial, random_rational, rational_x


# ---- field constants ------------------------------------------------------


def test_constant_goldens(f3, f9):
    assert parse_field_element("2", f3) == f3.from_int(2)
    assert parse_field_element("2+t", f9) == f9.element((2, 1))
    assert parse_field_element("-1", f3) == f3.from_int(2)
    assert parse_field_element("12345", f3) == f3.from_int(12345 % 3)
    assert parse_field_element("2^4", f3) == f3.one
    assert parse_field_element("t*t", f9) == f9.from_int(2)
    assert parse_field_element("(1+t)*(1-t)", f9) == f9.from_int(2)


def test_long_literals_and_exponents_reduce(f3, f9):
    long = "1" * 5000  # past int()'s digit limit; 2 (mod 3), 1 (mod 2), 7 (mod 8)
    assert parse_field_element(long, f3) == f3.from_int(2)
    assert parse_field_element("2^" + long, f3) == f3.from_int(2)
    assert parse_field_element("2^" + long + "0", f3) == f3.one
    assert parse_field_element("t^" + long, f9) == f9.gen ** 7
    assert parse_field_element("0^" + long, f9) == f9.zero
    assert parse_field_element("0^" + long + "0", f3) == f3.zero  # e = 0 (mod 2), e > 0
    assert parse_field_element("0^000", f9) == f9.one


def test_power_in_x_capped_at_max_degree(f3, monkeypatch):
    monkeypatch.setattr(exprparse, "MAX_POWER_DEGREE", 6)
    assert degree(parse_rational_function("x^6", f3).num) == 6
    assert degree(parse_rational_function("(1/(x+1))^3", f3).den) == 3
    assert parse_rational_function("(2*x^0)^7", f3) == parse_rational_function("2", f3)
    for text, offset in [("x^7", 1), ("(x^2)^4", 5), ("(1/x^3)^3", 7), ("(x/(x+1))^0007", 9)]:
        with pytest.raises(ParseError) as err:
            parse_rational_function(text, f3)
        assert type(err.value) is ParseError and err.value.offset == offset, text
        assert str(err.value).endswith("power of degree above 6")


def test_every_value_in_x_capped_at_max_degree(f3, monkeypatch):
    monkeypatch.setattr(exprparse, "MAX_POWER_DEGREE", 6)
    for text in ["x^3*x^3", "(x^6+1)/(x^6+2)", "x^5+1/x", "1/x^3-x^3"]:
        parse_rational_function(text, f3)  # each reaches degree 6 exactly
    # a cancelled top term lowers the degree, so the cap reads exact degrees
    assert str(parse_rational_function("(x^6-x^6+1)*x^6", f3)) == "x^6"
    for text, offset in [("x^4*x^3", 3), ("x^6+1/x", 3), ("1/x-x^6", 3), ("x^3/(1/x^4)", 3),
                         ("(x^6+1)/(x^6+2)*x", 15), ("(x^6+x-x)*x", 9)]:
        with pytest.raises(ParseError) as err:
            parse_rational_function(text, f3)
        assert type(err.value) is ParseError and err.value.offset == offset, text
        assert str(err.value).endswith("value of degree above 6")


def test_nesting_capped_at_max_depth(f3):
    depth = exprparse.MAX_NESTING_DEPTH
    for parse in (parse_field_element, parse_rational_function):
        assert parse("(" * depth + "2" + ")" * depth, f3) == parse("2", f3)
        with pytest.raises(ParseError) as err:
            parse("1+" + "(" * (depth + 1) + "2" + ")" * (depth + 1), f3)
        assert err.value.offset == depth + 2
        assert str(err.value).endswith(f"parentheses nested deeper than {depth}")


def test_every_bmp_character_tokenizes_by_the_grammar():
    # whitespace (str.isspace) is skipped, ASCII digits join one literal,
    # the grammar's symbols are tokens, and anything else is an error
    for code in range(0x10000):
        ch = chr(code)
        text = f"1{ch}2"
        if ch.isspace():
            expected = [("1", 0), ("2", 2), ("", 3)]
        elif ch in "0123456789":
            expected = [(text, 0), ("", 3)]
        elif ch in "tx+-*/^()":
            expected = [("1", 0), (ch, 1), ("2", 2), ("", 3)]
        else:
            expected = (1, f"unexpected character {ch!r}")
        try:
            tokens = exprparse._tokenize(text)
        except ParseError as exc:
            tokens = (exc.offset, exc.message)
        assert tokens == expected, hex(code)


def test_tokenizer_reports_the_first_error_in_the_text():
    depth = exprparse.MAX_NESTING_DEPTH
    deep = "(" * (depth + 1)
    nested = f"parentheses nested deeper than {depth}"
    for text, offset, message in [
            (deep + "?", depth, nested),
            ("?" + deep, 0, "unexpected character '?'"),
            ("()" * depth + "(" + "?" + deep, 2 * depth + 1, "unexpected character '?'"),
            (") " + deep + "(", depth + 3, nested)]:
        with pytest.raises(ParseError) as err:
            exprparse._tokenize(text)
        assert (err.value.offset, err.value.message) == (offset, message), text


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
    assert rf.num == LaurentSeries.from_coeffs(f3, 0, [0, 0, 1])
    assert rf.den == LaurentSeries.from_coeffs(f3, 0, [2, 0, 0, 1, 0, 0, 0, 0, 0, 1])

    rf = parse_rational_function("x", f3)
    assert rf.num == LaurentSeries.monomial(f3, 1)
    assert rf.den == LaurentSeries.constant(f3, 1)


@pytest.mark.parametrize("text, form", [
    ("2-x", "2*x+2"),
    ("x-2", "x+1"),
    ("t/x", "(t)/(x)"),
    ("x/t", "(2*t)*x"),
    ("(t+1)*x", "(1+t)*x"),
    ("x*(t+1)", "(1+t)*x"),
    ("(1/(t+2))^3*x", "(1+2*t)*x"),
])
def test_constants_meet_x_in_either_order(f9, text, form):
    rf = parse_rational_function(text, f9)
    assert isinstance(rf, RationalFunction) and str(rf) == form


def test_x_free_text_is_evaluated_in_the_field(f9, monkeypatch):
    products = []
    mul = kronecker._mul_cols
    monkeypatch.setattr(kronecker, "_mul_cols", lambda *args: products.append(1) or mul(*args))
    rf = parse_rational_function("(t+1)^5*(2+t)/(t-1)+1/2", f9)
    parsed, products[:] = len(products), []
    assert isinstance(rf, RationalFunction) and str(rf) == "(1+2*t)"
    assert rf == RationalFunction.constant(f9, f9.element((1, 2)))
    assert parsed == len(products)  # the kernel ran only to promote the value once
    assert parse_polynomial("(t+1)/(t-1)", f9) == LaurentSeries.constant(f9, f9.element((0, 2)))


def test_rational_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        parse_rational_function("1/(x-x)", f3)


def test_rational_reduces_to_lowest_terms(f3):
    rf = parse_rational_function("(x^2-1)/(x-1)", f3)
    assert rf == parse_rational_function("x+1", f3)


def _random_expression(rng, field, depth):
    """(text, value) of a random expression in x, the value built by
    RationalFunction arithmetic at every step, each step in lowest terms."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(("x", "x^n", "c", "t" if field.degree >= 2 else "c"))
        if leaf == "x":
            return "x", rational_x(field)
        if leaf == "x^n":
            n = rng.randrange(5)
            return f"x^{n}", rational_x(field) ** n
        if leaf == "t":
            return "t", RationalFunction.constant(field, field.gen)
        n = rng.randrange(12)
        return str(n), RationalFunction.constant(field, n)
    op = rng.choice("++-**//^n")
    text, value = _random_expression(rng, field, depth - 1)
    if op == "^":
        n = rng.randrange(5)
        return f"({text})^{n}", value ** n
    if op == "n":
        return f"-({text})", -value
    text2, value2 = _random_expression(rng, field, depth - 1)
    if op == "/" and value2.is_zero:
        op = "*"
    result = {"+": value + value2, "-": value - value2}.get(op) if op in "+-" else (
        value * value2 if op == "*" else value / value2)
    return f"({text}){op}({text2})", result


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_parse_matches_rational_function_arithmetic(k):
    # polynomial intermediates stay exact series: the parsed value must be
    # the reduced RationalFunction that quotient arithmetic builds
    field = __import__("char3iso").FieldParams(k)
    rng = random.Random(f"parse-oracle:{k}")
    quotients = 0
    for _ in range(150):
        text, want = _random_expression(rng, field, rng.randint(2, 6))
        got = parse_rational_function(text, field)
        assert got == want and str(got) == str(want), text
        quotients += degree(want.den) > 0
    assert 20 < quotients < 130, quotients


@pytest.mark.parametrize("text, error, offset", [
    ("(2*x^3)^3", ParseError, 7),           # a one-term power, over the cap
    ("(x^2+1)^4", ParseError, 7),           # a polynomial power, over the cap
    ("x^6/(x+1)*(x+2)", ParseError, 9),      # a quotient times a polynomial
    ("(x^3+1)*x^4/(x+1)", ParseError, 7),   # a polynomial product, before the '/'
    ("x^5+1/x^2", ParseError, 3),           # a polynomial plus a quotient
    ("1/(x^2-x*x)", ZeroDenominator, 1),
    ("(x+t)/(t-t)", ZeroDenominator, 5),
    ("(x+1)/(x-x)^2", ZeroDenominator, 5),
])
def test_degree_cap_and_zero_denominator_on_polynomial_values(f9, monkeypatch,
                                                              text, error, offset):
    monkeypatch.setattr(exprparse, "MAX_POWER_DEGREE", 6)
    with pytest.raises(error) as err:
        parse_rational_function(text, f9)
    assert type(err.value) is error
    if error is ZeroDenominator:
        assert str(err.value) == f"zero denominator at offset {offset}"
    else:
        assert err.value.offset == offset
        assert str(err.value).endswith("degree above 6")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_only_a_quotient_runs_a_gcd(monkeypatch, k):
    field = FieldParams(k)
    calls = []
    real_gcd = ratrec.poly_gcd
    monkeypatch.setattr(ratrec, "poly_gcd", lambda a, b: calls.append(1) or real_gcd(a, b))
    for text in ("2*x^6+x^4+2*x^3+2*x^2+2*x", "(x+1)^5*(x-1)-x^3", "-x", "2", "(1+2)*x^0",
                 "x^4+x^2+2*x+1" if k == 1 else "t*x^2-(t+1)^2*x+t^7"):
        parse_rational_function(text, field)
        parse_polynomial(text, field)
    assert calls == []
    parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", field)
    assert calls


def test_a_sum_makes_as_many_series_however_many_terms_it_has(f9, monkeypatch):
    # a sum of monomials accumulates in place: 10 terms and 1,000 make the
    # same number of series, where one series or more per term made the
    # parse quadratic in the number of terms
    import char3iso.series as series

    made, new = [], series._new_series
    monkeypatch.setattr(series, "_new_series", lambda cls: made.append(cls) or new(cls))
    counts = []
    for n in (10, 1000):
        made.clear()
        rf = parse_rational_function("+".join(f"(1+t)*x^{e}" for e in range(n)), f9)
        assert (degree(rf.num), degree(rf.den)) == (n - 1, 0)
        assert rf.num.coefficient(n - 1) == f9.element((1, 1))
        counts.append(len(made))
    assert counts[0] == counts[1]


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
    ("x^70000+t", True, ParseError, 1),
    ("t+x^70000", True, GeneratorUnavailable, 0),
    ("x^65536*x+t", True, ParseError, 7),
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


RECORDS = sorted(Path(__file__).parent.glob("data/*.records.txt"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_forms_print_back_as_read(path):
    # identify reads a printed form back, so parsing must keep its text
    pairs = [line.partition("=")[::2] for line in path.read_text().splitlines()]
    records = dict(pairs)
    field = _parse_field(argparse.Namespace(field=records["field"], modulus=records["modulus"]))
    forms = [text for key, text in pairs
             if key in ("rational", "y_factor", "fx", "fy_factor", "eta") and text != "none"]
    assert forms or records.get("rational") == "none"
    for text in forms:
        assert str(parse_rational_function(text, field)) == text


# ---- an independent oracle: bench/gf.py --------------------------------------------

def _gf():
    """bench/gf.py, imported by path and only read: a second GF(3^k) and
    a second parser of the same grammar that share no code with the
    library."""
    path = Path(__file__).parent.parent / "bench" / "gf.py"
    spec = importlib.util.spec_from_file_location("gf_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_sum(rng, F, n):
    """n signed monomials with random nonzero coefficients in F, written
    in t, with exponents below top = min(2n, 40) so that some collide, and
    a term x^top that a later term cancels. gf raises x to the e by e
    products, so the exponents stay small."""
    coefficient = (lambda: f"({F.text(rng.randrange(1, F.q))})") if F.k >= 2 else (
        lambda: str(rng.randrange(1, 3)))
    top = min(2 * n, 40)
    terms = [f"{rng.choice('+-')}{coefficient()}*x^{rng.randrange(top)}" for _ in range(n)]
    i, j = sorted(rng.sample(range(n + 1), 2))
    terms[j:j] = [f"-x^{top}"]
    terms[i:i] = [f"+x^{top}"]
    return "".join(terms).removeprefix("+")


def _oracle_expression(rng, F, depth):
    """A random expression over short sums: multi-term products, quotients,
    small powers, unary minus, and a factor 3m that cancels to zero."""
    if depth == 0:
        return f"({_oracle_sum(rng, F, rng.randint(1, 5))})"
    op = rng.choice(["+", "-", "*", "*", "/", "^", "neg", "zero"])
    a = _oracle_expression(rng, F, depth - 1)
    m = f"{F.text(rng.randrange(1, F.q)) if F.k >= 2 else 1}*x^{rng.randrange(6)}"
    zero = f"(({m})+({m})+({m}))"
    if op == "^":  # no x^0 of a quotient, which gf reads as 1 over a zero denominator
        return f"({a})^{rng.randint(1 if '/' in a else 0, 3)}"
    if op == "neg":
        return f"(-{a})"
    if op == "zero":
        return f"{zero}*{a}"
    b = _oracle_expression(rng, F, depth - 1)
    if op == "/" and rng.random() < 0.25:
        b = f"{zero}*{b}"
    return f"({a}{op}{b})"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parse_agrees_with_an_independent_parser(k):
    # the library's printed value reads back, in gf's own arithmetic, as
    # the same rational function gf reads from the text; where the library
    # finds a zero denominator, gf refuses the text too
    gf = _gf()
    field = FieldParams(k)
    F = gf.Field(field.modulus)
    rng = random.Random(f"gf-oracle:{k}")
    zero_denominators = quotients = 0
    for case in range(60):
        text = _oracle_expression(rng, F, rng.randint(1, 3))
        if case % 4 == 0:  # a long sum: before, after, or multiplying the rest
            big = f"({_oracle_sum(rng, F, rng.randint(200, 260))})"
            text = rng.choice([f"{big}+{text}", f"{text}-{big}", f"{big}*{text}"])
        try:
            got = parse_rational_function(text, field)
        except ZeroDenominator:
            zero_denominators += 1
            with pytest.raises(ValueError, match="zero denominator"):
                gf.parse_rational(F, text)
            continue
        assert gf.rat_equal(F, gf.parse_rational(F, text), gf.parse_rational(F, str(got))), text
        quotients += degree(got.den) > 0
    assert zero_denominators and quotients, (zero_denominators, quotients)
