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
from char3iso import FieldElement, FieldParams, gf3field, kronecker, ratrec
from char3iso.isocore import solve_gamma
from char3iso.ratrec import coefficients, degree, leading, poly_gcd, poly_text
from char3iso.series import INF, _series

from helpers import (
    pade_normalising_first,
    parse_polynomial,
    poly_divmod,
    poly_extended_euclid,
    random_polynomial,
    random_rational,
    rational_eval,
    run_sub,
    schoolbook_divmod,
    schoolbook_mul,
    trim,
)

FIELDS = [FieldParams(k) for k in range(1, 6)] + [
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
]


# ---- polynomials: exact series read from degree 0 ---------------------------


def _poly(field, run):
    return LaurentSeries.from_coeffs(field, 0, run)


def test_poly_normalization(f3):
    p = _poly(f3, (1, 2, 0, 0))
    assert degree(p) == 1
    assert _poly(f3, (0, 0)).is_zero
    assert degree(LaurentSeries.zero(f3)) == -1


def test_poly_divmod_golden(f3):
    a = parse_polynomial("x^3+2*x+1", f3)
    b = parse_polynomial("x+1", f3)
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert degree(r) < degree(b)


def test_poly_divmod_by_zero(f3):
    with pytest.raises(ZeroDivisionError):
        poly_divmod(_poly(f3, [1]), LaurentSeries.zero(f3))


def test_poly_eval_horner(f9):
    p = RationalFunction.from_polynomial(parse_polynomial("x^2+t*x+2", f9))
    x = f9.element((1, 1))
    assert rational_eval(p, x) == x * x + f9.gen * x + f9.from_int(2)


def test_poly_text_and_coefficients(f9):
    p = _poly(f9, [0, 0, f9.element((1, 1)), 0, f9.gen, 2])
    assert poly_text(p) == "2*x^5+t*x^4+(1+t)*x^2"
    assert poly_text(_poly(f9, [f9.element((2, 1)), 0, 1])) == "x^2+(2+t)"
    assert poly_text(_poly(f9, [f9.element((0, 2))])) == "2*t"
    assert poly_text(LaurentSeries.zero(f9)) == "0"
    assert coefficients(p) == (f9.zero, f9.zero, f9.element((1, 1)), f9.zero, f9.gen,
                               f9.from_int(2))
    assert coefficients(LaurentSeries.zero(f9)) == ()
    assert leading(p) == 2
    with pytest.raises(ValueError):
        leading(LaurentSeries.zero(f9))


def test_poly_derivative_char3(f3):
    assert parse_polynomial("x^3", f3).derivative().is_zero
    assert parse_polynomial("x^4", f3).derivative() == parse_polynomial("x^3", f3)


def test_constant_factors_scale_without_the_kernel(monkeypatch, f9):
    products = []
    real_mul = kronecker._mul_cols
    monkeypatch.setattr(kronecker, "_mul_cols",
                        lambda *args: products.append(1) or real_mul(*args))
    rng = random.Random(11)
    for _ in range(40):
        p = random_polynomial(rng, f9, 6)
        c = random_polynomial(rng, f9, 0)
        want = _poly(f9, schoolbook_mul(coefficients(p), coefficients(c)))
        assert p * c == want and c * p == want
    assert products == []
    p = random_polynomial(rng, f9, 6, nonzero=True)
    assert p * 1 is p and _poly(f9, [1]) * p is p
    RationalFunction.x(f9)
    RationalFunction.constant(f9, f9.gen)
    assert products == []
    RationalFunction.x(f9) * RationalFunction.x(f9)  # a monomial factor scales too
    assert products == []
    x_plus_1 = RationalFunction.x(f9) + 1
    x_plus_1 * x_plus_1
    assert len(products) == 1


def _operand(rng, field):
    """A run that is zero, a constant, divisible by X, dense or sparse, with
    trailing zeros at times."""
    shape = rng.choice(("zero", "constant", "x-divisible", "dense", "sparse"))
    if shape == "zero":
        return [field.zero] * rng.randint(0, 2)
    length = 1 if shape == "constant" else rng.randint(2, rng.choice((8, 40)))
    run = [field.element([rng.randrange(3) for _ in range(field.degree)])
           if shape != "sparse" or rng.random() < 0.2 else field.zero
           for _ in range(length)]
    if shape == "x-divisible":
        run = [field.zero] * rng.randint(1, 6) + run
    return run + [field.zero] * rng.choice((0, 0, 2))


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: f"3^{field.degree}")
def test_polynomial_ops_match_element_runs(field):
    rng = random.Random(f"poly-ops:{field.degree}")
    for _ in range(120):
        a, b = _operand(rng, field), _operand(rng, field)
        pa, pb = _poly(field, a), _poly(field, b)
        a, b = trim(a), trim(b)
        assert list(coefficients(pa)) == a and degree(pa) == len(a) - 1
        assert list(coefficients(pa * pb)) == trim(schoolbook_mul(a, b))
        assert list(coefficients(pa - pb)) == run_sub(a, b)
        assert list(coefficients(pa + pb)) == run_sub(a, [-c for c in b])
        if b:
            q, r = poly_divmod(pa, pb)
            q_ref, r_ref = schoolbook_divmod(a, b)
            assert (list(coefficients(q)), list(coefficients(r))) == (trim(q_ref), r_ref)
        else:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(pa, pb)
        if a or b:
            assert list(coefficients(poly_gcd(pa, pb))) == poly_extended_euclid(a, b)[0]
        if a:
            assert leading(pa) == a[-1]
        assert (list(coefficients(pa.derivative()))
                == trim(c * (i % 3) for i, c in enumerate(a))[1:])
        x = field.element([rng.randrange(3) for _ in range(field.degree)])
        value = field.zero
        for i, c in enumerate(a):
            value = value + c * x ** i
        assert rational_eval(RationalFunction.from_polynomial(pa), x) == value


def test_pade_and_gcd_make_few_field_elements(monkeypatch, f9):
    # Pade's Euclid, its certification and poly_gcd stay on the kernel's
    # columns: elements are made only for leading coefficients and scalings.
    made = []
    real = FieldElement._from_packed

    def counting(field, packed):
        made.append(1)
        return real(field, packed)

    def count(call, *args):
        made.clear()
        monkeypatch.setattr(FieldElement, "_from_packed", staticmethod(counting))
        monkeypatch.setattr(gf3field, "_from_packed", counting)
        try:
            call(*args)
        finally:
            monkeypatch.undo()
        return len(made)

    for b, kind, text in ((1, "alpha", "x^7+x^4+x"), (2, "beta", "x^2/(x^9+x^3-1)")):
        seed = getattr(Seed, kind)(parse_rational_function(text, f9))
        eta = construct(CurveParams(f9, A=1, B=b, c=1), seed, 512)[0].eta
        assert count(pade, eta, 254, 254) < 64
    a = parse_polynomial("(x^2+x+t)^256", f9)
    b = parse_polynomial("(x^3+t*x+1)^170", f9)
    assert count(poly_gcd, a, b) < degree(b)


def test_pade_euclid_makes_no_kernel_product_or_inverse(monkeypatch, f9):
    # Pade's Euclid takes its remainders by eliminating leading terms and
    # carries the denominator in the same subtractions: no kernel inverse,
    # and the one product is the certification's
    seed = Seed.alpha(parse_rational_function("x^7+x^4+x", f9))
    eta = construct(CurveParams(f9, A=1, B=1, c=1), seed, 512)[0].eta
    inverses, products, depth = [], [], []
    mul_cols, inverse_cols = kronecker._mul_cols, kronecker._inverse_cols

    def counting_mul(*args):
        products.append(len(depth))
        return mul_cols(*args)

    def counting_inverse(*args):
        inverses.append(len(depth))
        depth.append(1)
        try:
            return inverse_cols(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(kronecker, "_mul_cols", counting_mul)
    monkeypatch.setattr(kronecker, "_inverse_cols", counting_inverse)
    assert pade(eta, 254, 254) is None
    assert (len(inverses), products.count(0)) == (0, 1)


def test_gcd_goldens(f3):
    a = parse_polynomial("x^2-1", f3)
    b = parse_polynomial("x-1", f3)
    assert poly_gcd(a, b) == parse_polynomial("x+2", f3)
    zero = LaurentSeries.zero(f3)
    assert poly_gcd(a, zero) == a * leading(a).inverse()
    with pytest.raises(ValueError):
        poly_gcd(zero, zero)


def test_extended_euclid_identity_randomized(f3, f9):
    rng = random.Random(40093)
    for _ in range(300):
        field = f9 if rng.random() < 0.5 else f3
        a = random_polynomial(rng, field)
        b = random_polynomial(rng, field)
        if a.is_zero and b.is_zero:
            continue
        g, s, t = (_poly(field, run)
                   for run in poly_extended_euclid(coefficients(a), coefficients(b)))
        assert s * a + t * b == g
        assert leading(g) == 1 and g == poly_gcd(a, b)
        if not a.is_zero:
            assert poly_divmod(a, g)[1].is_zero
        if not b.is_zero:
            assert poly_divmod(b, g)[1].is_zero


# ---- rational functions ----------------------------------------------------


def test_rational_canonical_form(f3):
    rf = RationalFunction(parse_polynomial("2*x^2-2", f3), parse_polynomial("2*x-2", f3))
    assert rf == RationalFunction.from_polynomial(parse_polynomial("x+1", f3))
    assert leading(rf.den) == 1


def test_constant_rational_hashes_like_the_value_it_equals(f9):
    # equal objects must hash alike, so a set or dict key treats them as one
    for value in [*f9.elements(), 0, 1, 2]:
        r = RationalFunction.constant(f9, value)
        assert r == value and hash(r) == hash(value)
        assert len({r, value}) == 1


def test_rational_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        RationalFunction(_poly(f3, [1]), LaurentSeries.zero(f3))


def test_rational_eval_pole(f3):
    rf = parse_rational_function("1/x", f3)
    assert rational_eval(rf, f3.zero) is None
    assert rational_eval(rf, f3.from_int(2)) == f3.from_int(2)


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
    assert rf.den.coefficient(0).is_zero


def test_pade_simple_pole_checks_the_last_known_coefficient(f9):
    # den = X u, so den * series reaches the series' last known coefficient
    # only at X^(prec + 1): the check must compare below prec + val(den).
    rf = parse_rational_function("(t*x^2+1)/(x^3+x^2+2*x)", f9)
    s = rf.expand(20)
    assert s.val == -1 and s.prec == 20
    assert pade(s, 3, 3) == rf
    for c in (1, f9.gen):
        assert pade(s + LaurentSeries.monomial(f9, 19, c, prec=20), 3, 3) is None
        assert pade(s + LaurentSeries.monomial(f9, 18, c, prec=20), 3, 3) is None


def test_pade_series_divisible_by_x(f3, f9):
    # head = X^v h with v >= 1: the denominator comes from dividing by a
    # prefix whose low coefficients vanish
    for field, text, v in ((f3, "x^2*(1+x)/(1+x+2*x^3)", 2),
                           (f9, "(t*x^3+x^5)/(1+t*x^2)", 3),
                           (f9, "x^4/(1+x)^3", 4)):
        rf = parse_rational_function(text, field)
        s = rf.expand(40)
        assert s.val == v
        assert pade(s, 6, 4) == rf
        assert pade(s.shift(1), 7, 4) == rf * RationalFunction.x(field)
        assert pade(s, v - 1, 4) is None  # too few numerator degrees for X^v


def test_pade_euclid_ending_at_a_zero_remainder(monkeypatch, f3, f9):
    # every remainder of X^order and X^v h is a multiple of X^v; when v is
    # above the numerator bound, Euclid runs down to a zero remainder
    remainders = []
    real = kronecker._euclid

    def last_remainder(field, a, b, split, stop):
        runs = real(field, a, b, split, stop)
        remainders.append(any(c[:split].strip(b"\0") for c in runs[1]))
        return runs

    monkeypatch.setattr(kronecker, "_euclid", last_remainder)
    for series, dn, dd in ((parse_rational_function("x^5/(1-x)", f3).expand(20), 2, 8),
                           (parse_rational_function("x^3", f9).num, 1, 3),
                           (parse_rational_function("t*x^4/(1+x^2)", f9).expand(30), 3, 5)):
        remainders.clear()
        assert pade(series, dn, dd) is None
        assert remainders == [False]  # the kernel's last remainder is zero
        assert pade_normalising_first(series, dn, dd) is None
    remainders.clear()
    # a prefix that is zero below order: Euclid does not start
    assert pade(LaurentSeries.monomial(f3, 20, prec=30), 2, 2) is None
    assert remainders == []


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
    fields = (f3, f9, FieldParams(3))
    found = 0
    for _ in range(600):
        field = rng.choice(fields)
        series = random_rational(rng, field, 4).expand(rng.randint(12, 30))
        series = series.shift(rng.choice((-1, 0, 1, 2, 3)))
        if rng.random() < 0.3:
            series = series + LaurentSeries.monomial(
                field, rng.randint(0, series.prec - 1), prec=series.prec)
        dn, dd = rng.randint(0, 6), rng.randint(0, 6)
        if series.is_zero or series.val < -1 or series.prec < dn + dd + 2:
            continue
        got = pade(series, dn, dd)
        want = pade_normalising_first(series, dn, dd)
        assert (None if got is None
                else (list(coefficients(got.num)), list(coefficients(got.den)))) == want
        found += got is not None
    assert 50 < found < 250, found


def test_pade_cofactor_on_long_runs(monkeypatch):
    # The kernel carries u in each remainder's subtractions. On prefixes of
    # 200 to 600 terms over GF(3^1..3^7), dense, sparse, divisible by X or
    # rational, the last two runs hold r = u * head (mod X^order) with
    # deg u = order - deg r_prev, and pade agrees with the oracle that
    # divides and normalises on element runs.
    rng = random.Random(2808)
    fields = [FieldParams(k) for k in range(1, 8)]
    calls = []
    real = kronecker._euclid
    monkeypatch.setattr(kronecker, "_euclid",
                        lambda *args: calls.append((args[3], real(*args))) or calls[-1][1])
    found = 0
    for case, field in enumerate(fields):
        order = rng.randint(200, 600)
        dn = rng.randint(0, order - 1)
        prec = order + 1 + rng.randint(0, 3)
        if case % 3 == 0:
            series = random_rational(rng, field, 6).expand(prec)
        else:
            val, density = rng.choice((0, 0, 1, 4)), rng.choice((1.0, 0.1))
            series = LaurentSeries.from_coeffs(field, val, [
                field.element([rng.randrange(3) for _ in range(field.degree)])
                if rng.random() < density else field.zero for _ in range(prec - val)], prec)
        calls.clear()
        got = pade(series, dn, order - 1 - dn)
        want = pade_normalising_first(series, dn, order - 1 - dn)
        assert (None if got is None
                else (list(coefficients(got.num)), list(coefficients(got.den)))) == want, case
        found += got is not None
        (split, (prev, cur)), = calls[:1]
        assert split == order + 1
        r_prev, r, u = (_series(field, 0, [c[lo:hi] for c in run], INF)
                        for run, lo, hi in ((prev, 0, split), (cur, 0, split), (cur, split, None)))
        head = series.truncate(order)
        assert (u * head - r).truncate(order).is_zero, case
        assert degree(u) == order - degree(r_prev), case
    assert 0 < found < len(fields), found


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
    pairs = [(random_rational(rng, f9), random_polynomial(rng, f9, 3)) for _ in range(40)]
    expected = [RationalFunction(rf.num + rf.den * p, rf.den) for rf, p in pairs]
    expected += [RationalFunction(rf.num + rf.den * f9.gen, rf.den) for rf, _ in pairs[:10]]
    cases = [(rf, RationalFunction.from_polynomial(p)) for rf, p in pairs]
    cases += [(rf, f9.gen) for rf, _ in pairs[:10]]
    monkeypatch.setattr(ratrec, "poly_gcd", None)
    for (rf, p), want in zip(cases, expected):
        assert rf + p == want and p + rf == want


# GF(3^1) .. GF(3^5), and GF(9) once more under a second modulus, t^2 + t + 2
SMALL_FIELDS = [FieldParams(k) for k in range(1, 6)] + [FieldParams(2, (2, 1, 1))]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda field: str(field.modulus))
def test_polynomials_and_constants_skip_the_reduction_against_one(monkeypatch, field):
    rng = random.Random(f"from_polynomial:{field.modulus}")
    one = LaurentSeries.constant(field, 1)
    polys = [random_polynomial(rng, field, 6) for _ in range(40)] + [LaurentSeries.zero(field)]
    want = [RationalFunction(p, one) for p in polys]
    constants = list(field.elements())[:20] + [0, 1, 2, 5]
    want_constants = [RationalFunction(LaurentSeries.constant(field, c), one) for c in constants]
    want_x = RationalFunction(LaurentSeries.monomial(field, 1), one)
    monkeypatch.setattr(ratrec, "poly_gcd", None)
    monkeypatch.setattr(FieldElement, "inverse", None)
    for p, rf in zip(polys, want):
        got = RationalFunction.from_polynomial(p)
        assert got == rf and got.num is p
    for c, rf in zip(constants, want_constants):
        assert RationalFunction.constant(field, c) == rf
    assert RationalFunction.x(field) == want_x


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda field: str(field.modulus))
def test_powers_of_a_monomial_match_repeated_products(field):
    rng = random.Random(f"power:{field.modulus}")
    for _ in range(30):
        c = field.element([rng.randrange(3) for _ in range(field.degree)]) or field.one
        c = rng.choice((c, field.one, -field.one))
        m = LaurentSeries.monomial(field, rng.randint(0, 3), c)
        power = field.one
        for n in range(8):
            assert ratrec._power(m, n) == LaurentSeries.from_terms(field, {m.val * n: power})
            power = power * c


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
