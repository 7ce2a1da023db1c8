import random

import pytest

from char3iso import (
    CurveParams,
    InsufficientPrecision,
    LaurentSeries,
    RationalFunction,
    Seed,
    ZeroDenominator,
    construct,
    derive_map_pair,
    pade,
    parse_rational_function,
)
from char3iso import ratrec
from char3iso.exprparse import parse_polynomial
from char3iso.isocore import solve_gamma
from char3iso.ratrec import Polynomial, poly_gcd

from helpers import (
    pade_normalising_first,
    poly_extended_euclid,
    random_polynomial,
    random_rational,
)


# ---- polynomials ---------------------------------------------------------


def test_poly_normalization(f3):
    p = Polynomial(f3, (1, 2, 0, 0))
    assert p.degree() == 1
    assert Polynomial(f3, (0, 0)).is_zero
    assert Polynomial.zero(f3).degree() == -1


def test_poly_divmod_golden(f3):
    a = parse_polynomial("x^3+2*x+1", f3)
    b = parse_polynomial("x+1", f3)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_poly_divmod_by_zero(f3):
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial.one(f3), Polynomial.zero(f3))


def test_poly_eval_horner(f9):
    p = parse_polynomial("x^2+t*x+2", f9)
    x = f9.element((1, 1))
    assert p.eval(x) == x * x + f9.gen * x + f9.from_int(2)


def test_poly_derivative_char3(f3):
    assert parse_polynomial("x^3", f3).derivative().is_zero
    assert parse_polynomial("x^4", f3).derivative() == parse_polynomial("x^3", f3)


def test_gcd_goldens(f3):
    a = parse_polynomial("x^2-1", f3)
    b = parse_polynomial("x-1", f3)
    assert poly_gcd(a, b) == parse_polynomial("x+2", f3)
    assert poly_gcd(a, Polynomial.zero(f3)) == a.monic()
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(f3), Polynomial.zero(f3))


def test_extended_euclid_identity_randomized(f3, f9):
    rng = random.Random(40093)
    for _ in range(300):
        field = f9 if rng.random() < 0.5 else f3
        a = random_polynomial(rng, field)
        b = random_polynomial(rng, field)
        if a.is_zero and b.is_zero:
            continue
        g, s, t = poly_extended_euclid(a, b)
        assert s * a + t * b == g
        assert g.is_monic()
        if not a.is_zero:
            assert (a % g).is_zero
        if not b.is_zero:
            assert (b % g).is_zero


# ---- rational functions ----------------------------------------------------


def test_rational_canonical_form(f3):
    rf = RationalFunction(parse_polynomial("2*x^2-2", f3), parse_polynomial("2*x-2", f3))
    assert rf == RationalFunction.from_polynomial(parse_polynomial("x+1", f3))
    assert rf.den.is_monic()


def test_rational_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        RationalFunction(Polynomial.one(f3), Polynomial.zero(f3))


def test_rational_eval_pole(f3):
    rf = parse_rational_function("1/x", f3)
    assert rf.eval(f3.zero) is None
    assert rf.eval(f3.from_int(2)) == f3.from_int(2)


def test_rational_derivative_matches_series(f3, f9):
    rng = random.Random(40099)
    for _ in range(100):
        field = f9 if rng.random() < 0.5 else f3
        rf = random_rational(rng, field)
        lhs = rf.derivative().expand(20)
        rhs = rf.expand(21).derivative()
        assert lhs.agrees_with(rhs)


# ---- pade reconstruction ----------------------------------------------------


def test_pade_geometric(f3):
    series = parse_rational_function("1/(1-x)", f3).expand(32)
    assert pade(series, 1, 1) == parse_rational_function("1/(1+2*x)", f3)


def test_pade_round_trip_random(f3, f9):
    rng = random.Random(40111)
    hits = 0
    for _ in range(200):
        field = f9 if rng.random() < 0.5 else f3
        rf = random_rational(rng, field)
        back = pade(rf.expand(32), 5, 5)
        assert back == rf
        hits += 1
    assert hits == 200


def test_pade_certifies_by_re_expansion(f3):
    # a series that is rational only in its first terms must be rejected
    rf = parse_rational_function("1/(1-x)", f3)
    s = rf.expand(32)
    broken = s + LaurentSeries.monomial(f3, 20, prec=32)
    assert pade(broken, 1, 1) is None


def test_pade_simple_pole(f3):
    s = parse_rational_function("(-1)/x + 2", f3).expand(40)
    rf = pade(s, 3, 3)
    assert rf == parse_rational_function("(2*x+2)/x", f3)
    assert rf.den.eval(f3.zero).is_zero


def test_pade_insufficient_precision(f3):
    s = parse_rational_function("1/(1-x)", f3).expand(7)
    with pytest.raises(InsufficientPrecision):
        pade(s, 3, 3)


def test_pade_non_rational_sparse_series(f3):
    # gamma^3 + gamma = x^3 solved from zero: supported on powers 3^i with
    # alternating signs, never eventually periodic, so never rational
    psi = LaurentSeries.monomial(f3, 3)
    g = solve_gamma(f3.one, psi, f3.zero, 64)
    assert pade(g, 10, 10) is None


def test_pade_agrees_with_normalising_first(f3, f9):
    # Shifted, perturbed and pole-carrying expansions under random degree
    # bounds: certifying before the gcd must not change a single answer.
    rng = random.Random(7012)
    found = 0
    for _ in range(400):
        field = f9 if rng.random() < 0.5 else f3
        series = random_rational(rng, field, 4).expand(rng.randint(12, 30))
        series = series.shift(rng.choice((-1, 0, 1, 2, 3)))
        if rng.random() < 0.3:
            series = series + LaurentSeries.monomial(
                field, rng.randint(0, series.prec - 1), prec=series.prec)
        dn, dd = rng.randint(0, 6), rng.randint(0, 6)
        if series.is_zero or series.val < -1 or series.prec < dn + dd + 2:
            continue
        got = pade(series, dn, dd)
        assert got == pade_normalising_first(series, dn, dd)
        found += got is not None
    assert 50 < found < 250, found


def test_pade_declines_a_non_rational_series_without_a_gcd(monkeypatch, f9):
    curve = CurveParams(f9, A=1, B=1, c=1)
    seed = Seed.alpha(parse_rational_function("x^7+x^4+x", f9))
    eta = construct(curve, seed, 256)[0].eta
    calls = []
    real_gcd = ratrec.poly_gcd
    monkeypatch.setattr(ratrec, "poly_gcd", lambda a, b: calls.append(1) or real_gcd(a, b))
    assert pade(eta, 126, 126) is None
    assert calls == []


def test_adding_a_polynomial_keeps_lowest_terms_without_a_gcd(monkeypatch, f9):
    rng = random.Random(5)
    cases = [(random_rational(rng, f9), random_polynomial(rng, f9, 3)) for _ in range(40)]
    cases += [(rf, f9.gen) for rf, _ in cases[:10]]
    expected = [RationalFunction(rf.num + rf.den * p, rf.den) for rf, p in cases]
    monkeypatch.setattr(ratrec, "poly_gcd", None)
    for (rf, p), want in zip(cases, expected):
        assert rf + p == want and p + rf == want


def test_pade_zero_series(f3):
    z = LaurentSeries.zero(f3, 32)
    assert pade(z, 2, 2) == RationalFunction.constant(f3, 0)


def test_pade_rejects_deep_pole(f3):
    s = parse_rational_function("1/x", f3).expand(32).shift(-1)
    with pytest.raises(ValueError):
        pade(s, 3, 3)


# ---- coordinate map derivation ------------------------------------------------


def test_derive_map_pair_identity(f3):
    curve = CurveParams(f3, A=1, B=1, c=1)
    fx, fy = derive_map_pair(curve, parse_rational_function("x", f3))
    assert fx == parse_rational_function("x", f3)
    assert fy == RationalFunction.constant(f3, 1)


def test_derive_map_pair_inverse_x(f3):
    curve = CurveParams(f3, A=-1, B=0, c=1)
    fx, fy = derive_map_pair(curve, parse_rational_function("-1/x", f3))
    assert fy == parse_rational_function("1/x^2", f3)


def test_derive_map_pair_scales_with_c(f3):
    curve = CurveParams(f3, A=1, B=1, c=2)
    _, fy = derive_map_pair(curve, parse_rational_function("x", f3))
    assert fy == RationalFunction.constant(f3, 2)


def test_derive_map_pair_gf9_multiplier(f9):
    # the known degree-4 endomorphism of y^2 = x^3 + x + 2 over GF(9); its
    # y-multiplier equals the negative of the reference display
    curve = CurveParams(f9, A=1, B=2, c=1)
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    _, fy = derive_map_pair(curve, eta)
    displayed = parse_rational_function(
        "-(x^6+2*x^4+x^3+x^2+x)/(x^6+2*x^4+x^3+x^2+x+1)", f9)
    assert fy == -displayed
    # and it agrees with the series derivative of eta
    assert fy.expand(40).agrees_with(eta.expand(41).derivative())
