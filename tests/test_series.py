import random
from itertools import islice

import pytest

from char3iso import (
    FieldElement,
    FieldParams,
    LaurentSeries,
    MixedFields,
    PrecisionError,
    RationalFunction,
    ZeroDenominator,
    ZeroDivisor,
)
from char3iso import gf3field, kronecker
from char3iso.series import INF, in_residue_class

from helpers import (
    BOUNDARY_MODULI,
    Homogeneity,
    elementwise_add,
    elementwise_coefficient,
    elementwise_cube,
    elementwise_derivative,
    elementwise_in_residue_class,
    elementwise_neg,
    expand,
    homogeneity_class,
    oracle_expand,
    random_series,
    schoolbook_inverse,
    schoolbook_mul,
    split,
    split_by_formula,
)


def S(field, terms, prec=INF):
    return LaurentSeries.from_terms(field, terms, prec)


# ---- arithmetic goldens ------------------------------------------------------


def test_mul_golden(f3):
    a = S(f3, {0: 1, 1: 1}, 10)
    b = S(f3, {0: 1, 1: 2}, 10)
    assert a * b == S(f3, {0: 1, 2: 2}, 10)


def test_shift_golden(f3):
    s = S(f3, {0: 1, 1: 1})
    assert s.shift(-1) == S(f3, {-1: 1, 0: 1})


def test_mul_precision_bookkeeping(f3):
    prod = LaurentSeries.monomial(f3, -1, prec=5) * LaurentSeries.monomial(f3, 1, prec=7)
    assert prod == S(f3, {0: 1}, 6)
    assert prod.prec == 6


def test_add_precision_is_min(f3):
    a = S(f3, {0: 1}, 9)
    b = S(f3, {1: 1}, 5)
    assert (a + b).prec == 5


def test_geometric_inverse(f3):
    inv = LaurentSeries.constant(f3, 1).divide(S(f3, {0: 1, 1: 2}, 8))
    assert inv == S(f3, {e: 1 for e in range(8)}, 8)


def test_inverse_of_cube_plus_two(f3):
    # long-division oracle value; re-multiplication is the identity check
    s = S(f3, {0: 2, 3: 1})
    inv = LaurentSeries.constant(f3, 1).divide(s, prec=12)
    assert inv == S(f3, {0: 2, 3: 2, 6: 2, 9: 2}, 12)
    assert (s * inv).truncate(12) == S(f3, {0: 1}, 12)


def test_monomial_quotient_is_exact(f3):
    q = LaurentSeries.monomial(f3, 2) / LaurentSeries.monomial(f3, 3)
    assert q == LaurentSeries.monomial(f3, -1)
    assert q.prec == INF


def test_exact_inexact_division_raises(f3):
    with pytest.raises(ValueError):
        S(f3, {0: 1}) / S(f3, {0: 1, 1: 2})
    # but an explicit precision turns it into an expansion
    q = S(f3, {0: 1}).divide(S(f3, {0: 1, 1: 2}), prec=4)
    assert q == S(f3, {0: 1, 1: 1, 2: 1, 3: 1}, 4)


def test_division_by_zero_series(f3):
    with pytest.raises(ZeroDivisor):
        S(f3, {0: 1}) / LaurentSeries.zero(f3, 10)
    with pytest.raises(ZeroDivisor):
        LaurentSeries.constant(f3, 1).divide(LaurentSeries.zero(f3, 10))


def test_cube_goldens(f3):
    assert S(f3, {0: 1, 1: 1}).cube() == S(f3, {0: 1, 3: 1})
    assert LaurentSeries.monomial(f3, -1).cube() == LaurentSeries.monomial(f3, -3)


def test_derivative_goldens(f3):
    assert LaurentSeries.monomial(f3, 3).derivative().is_zero
    assert LaurentSeries.monomial(f3, -1).derivative() == S(f3, {-2: 2})
    assert S(f3, {1: 1, 2: 1, 3: 1}).derivative() == S(f3, {0: 1, 1: 2})


def test_derivative_drops_precision(f3):
    assert S(f3, {0: 1, 1: 1}, 9).derivative().prec == 8


def test_scalar_operands(f9):
    s = S(f9, {1: 1}, 6)
    assert s * f9.from_int(2) == S(f9, {1: 2}, 6)
    assert s * 2 == S(f9, {1: 2}, 6)
    assert (s + 1).coefficient(0) == f9.one
    assert (s * 0).is_zero


def _vbound(s):
    """The valuation, or for a series zero to its precision that precision."""
    return s.prec if s.is_zero else s.val


def test_one_coefficient_factors_scale_without_the_kernel(monkeypatch, f9):
    products = []
    real_mul = kronecker._mul_cols
    monkeypatch.setattr(kronecker, "_mul_cols",
                        lambda *args: products.append(1) or real_mul(*args))
    c = f9.element((2, 1))
    operands = [
        LaurentSeries.from_coeffs(f9, -3, [c, 0, 1, c, 2], 7),  # a pole, finite precision
        LaurentSeries.from_coeffs(f9, 2, [1, c, 0, c]),
        LaurentSeries.zero(f9, 5),
        LaurentSeries.zero(f9, -2),
    ]
    factors = [c, f9.one, f9.zero, 2, 1, 0, LaurentSeries.monomial(f9, -2, c),
               LaurentSeries.monomial(f9, 4, c, prec=6), LaurentSeries.monomial(f9, 0, 1, prec=3),
               LaurentSeries.zero(f9, 4)]
    for s in operands:
        for factor in factors:
            g = factor if isinstance(factor, LaurentSeries) else LaurentSeries.constant(f9, factor)
            prec = min(s.prec + _vbound(g), g.prec + _vbound(s))
            run = schoolbook_mul(s.coeffs, g.coeffs)
            want = LaurentSeries(f9, s.val + g.val, run, prec) if run else LaurentSeries.zero(f9, prec)
            assert s * factor == want and factor * s == want  # == compares prec too
        if not s.is_zero:
            assert s * 1 is s and LaurentSeries.constant(f9, 1) * s is s
    assert products == []


def test_zero_series_semantics(f3):
    z = LaurentSeries.zero(f3, 10)
    assert z.is_zero and z.prec != INF
    exact = LaurentSeries.zero(f3)
    assert exact.is_zero and exact.prec == INF
    assert (z * LaurentSeries.monomial(f3, 2)).prec == 12
    assert z.cube().prec == 30


def test_coefficient_beyond_precision(f3):
    s = S(f3, {0: 1}, 5)
    assert s.coefficient(4) == f3.zero
    with pytest.raises(PrecisionError):
        s.coefficient(5)


def test_mixed_fields_rejected(f3, f9):
    with pytest.raises(MixedFields):
        S(f3, {0: 1}) + S(f9, {0: 1})


def test_elements_of_another_field_do_not_enter_a_run(f9):
    f27 = FieldParams(3)
    t = f27.gen
    one_plus_x = S(f9, {0: 1, 1: 1})
    for make in (lambda: one_plus_x * t, lambda: t * one_plus_x, lambda: one_plus_x + t,
                 lambda: one_plus_x - t, lambda: LaurentSeries.from_coeffs(f9, 0, [t, 1]),
                 lambda: LaurentSeries.monomial(f9, 2, t * t),
                 lambda: LaurentSeries.from_coeffs(f9, 0, [1, t])):
        with pytest.raises(MixedFields):
            make()
    # an equal field built apart is the same field
    u = FieldParams(2).gen
    assert one_plus_x * u == S(f9, {0: f9.gen, 1: f9.gen})
    assert LaurentSeries.monomial(f9, 2, u) == S(f9, {2: f9.gen})


def test_division_by_one_coefficient_scales_without_the_kernel(monkeypatch, f9):
    c = f9.element((2, 1))
    operands = [LaurentSeries.from_coeffs(f9, -3, [c, 0, 1, c, 2], 7),
                LaurentSeries.from_coeffs(f9, 2, [1, c, 0, c]), LaurentSeries.zero(f9, 5)]
    divisors = [LaurentSeries.monomial(f9, -2, c), LaurentSeries.monomial(f9, 4, c, prec=6),
                LaurentSeries.constant(f9, 1), LaurentSeries.monomial(f9, 1, 2, prec=3)]
    monkeypatch.setattr(kronecker, "_mul_cols", None)
    monkeypatch.setattr(kronecker, "_inverse_cols", None)
    for s in operands:
        for d in divisors:
            inv = d.coefficient(d.val).inverse()
            for cap in (None, 4):
                prec = min(s.prec - d.val, d.prec - 2 * d.val + _vbound(s),
                           INF if cap is None else cap)
                want = (LaurentSeries(f9, s.val - d.val, [a * inv for a in s.coeffs], prec)
                        if s.coeffs else LaurentSeries.zero(f9, prec))
                assert s.divide(d, prec=cap) == want  # == compares prec too


def test_truncate_never_gains_precision(f3):
    s = S(f3, {0: 1}, 5)
    assert s.truncate(9).prec == 5
    assert s.truncate(3).prec == 3


# ---- splitting ----------------------------------------------------------------


def test_split_golden(f3):
    s = S(f3, {-1: 2, 0: 1, 1: 1, 2: 1}, 9)
    parts = split(s)
    assert parts.alpha == S(f3, {1: 1}, 9)
    assert parts.beta == S(f3, {-1: 2, 2: 1}, 9)
    assert parts.gamma == S(f3, {0: 1}, 9)


def test_split_zero(f3):
    parts = split(LaurentSeries.zero(f3, 7))
    assert parts.alpha.is_zero and parts.beta.is_zero and parts.gamma.is_zero
    assert parts.alpha.prec == 7


def test_split_by_formula_goldens(f3):
    assert split_by_formula(LaurentSeries.monomial(f3, 2, prec=9)).beta == \
        LaurentSeries.monomial(f3, 2, prec=9)
    parts = split_by_formula(S(f3, {4: 1, 5: 1}, 12))
    assert parts.alpha == S(f3, {4: 1}, 12)
    assert parts.beta == S(f3, {5: 1}, 12)
    assert parts.gamma.is_zero


def test_split_methods_agree_randomized(f3, f9):
    rng = random.Random(1009)
    for _ in range(500):
        field = f9 if rng.random() < 0.5 else f3
        s = random_series(rng, field)
        direct = split(s)
        formula = split_by_formula(s)
        assert direct == formula
        assert direct.recombined().agrees_with(s)


def test_leibniz_rule_randomized(f3, f9):
    rng = random.Random(1013)
    for _ in range(300):
        field = f9 if rng.random() < 0.5 else f3
        f = random_series(rng, field)
        g = random_series(rng, field)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs.agrees_with(rhs)


def test_cube_is_triple_product_randomized(f3, f9):
    rng = random.Random(1019)
    for _ in range(500):
        field = f9 if rng.random() < 0.5 else f3
        s = random_series(rng, field)
        assert s.cube().agrees_with(s * s * s)
        assert s.cube().derivative().is_zero


def test_homogeneity_goldens(f3):
    assert homogeneity_class(LaurentSeries.monomial(f3, 7)) is Homogeneity.V1
    assert homogeneity_class(LaurentSeries.monomial(f3, -1)) is Homogeneity.VM1
    assert homogeneity_class(S(f3, {0: 1, 1: 1})) is Homogeneity.MIXED
    assert homogeneity_class(LaurentSeries.zero(f3, 4)) is Homogeneity.V0


def test_homogeneity_matches_derivative_characterization(f3, f9):
    rng = random.Random(1021)
    for _ in range(200):
        field = f9 if rng.random() < 0.5 else f3
        s = random_series(rng, field)
        cls = homogeneity_class(s)
        d = s.derivative()
        xd = d.shift(1)
        if cls is Homogeneity.V0:
            assert d.is_zero
        elif cls is Homogeneity.V1:
            assert xd.agrees_with(s.truncate(xd.prec))
        elif cls is Homogeneity.VM1:
            assert xd.agrees_with(-s.truncate(xd.prec))


# ---- rational expansion --------------------------------------------------------


def _expand(num, den, prec):
    """The expansion of num/den, given as runs, to absolute precision prec."""
    field = den[0].field
    return expand(RationalFunction(LaurentSeries.from_coeffs(field, 0, num),
                                   LaurentSeries.from_coeffs(field, 0, den)), prec)


def test_expand_geometric(f3):
    s = _expand([f3.one], [f3.one, f3.from_int(-1)], 6)
    assert s == S(f3, {e: 1 for e in range(6)}, 6)


def test_expand_self_quotient(f3):
    s = _expand([f3.zero, f3.one], [f3.zero, f3.one], 8)
    assert s == S(f3, {0: 1}, 8)


def test_expand_matches_independent_oracle(f3):
    # x^2 / (x^9 + x^3 - 1)
    num = [0, 0, 1]
    den = [-1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    expected = oracle_expand(num, den, 30)
    s = _expand([f3.from_int(c) for c in num], [f3.from_int(c) for c in den], 30)
    assert {e: c.coeffs[0] for e, c in s.nonzero_terms()} == expected
    assert dict(s.nonzero_terms())[2] == f3.from_int(2)
    assert dict(s.nonzero_terms())[11] == f3.one


@pytest.mark.parametrize("degree", [2, 9])
def test_nonzero_terms_make_elements_as_they_are_reached(monkeypatch, degree):
    field = FieldParams(degree)
    rng = random.Random(degree)
    run = [field.element([rng.randrange(3) for _ in range(degree)]) if rng.random() < 0.7
           else field.zero for _ in range(8192)]
    s = LaurentSeries.from_coeffs(field, -1, [field.one] + run)
    expected = [(e, c) for e, c in enumerate(s.coeffs, s.val) if c]
    assert list(s.nonzero_terms()) == expected
    assert list(s._terms()) == [(e, c.packed) for e, c in expected]
    made = []
    from_packed = FieldElement._from_packed

    def counting(field, packed):
        made.append(packed)
        return from_packed(field, packed)

    monkeypatch.setattr(FieldElement, "_from_packed", staticmethod(counting))
    monkeypatch.setattr(gf3field, "_from_packed", counting)
    assert list(islice(s.nonzero_terms(), 11)) == expected[:11]
    assert len(made) <= 11
    assert list(LaurentSeries.zero(field, 5).nonzero_terms()) == []


def test_expand_remultiplication_identity(f3, f9):
    rng = random.Random(1031)
    for _ in range(100):
        field = f9 if rng.random() < 0.5 else f3
        num = [field.element([rng.randrange(3)] * field.degree)
               for _ in range(rng.randint(1, 5))]
        den = [field.element([rng.randrange(3) for _ in range(field.degree)])
               for _ in range(rng.randint(1, 5))]
        if all(c.is_zero for c in den):
            continue
        s = _expand(num, den, 24)
        back = s * LaurentSeries.from_coeffs(field, 0, den)
        assert back.agrees_with(LaurentSeries.from_coeffs(field, 0, num))


def test_expand_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        _expand([f3.one], [f3.zero], 10)


def test_precision_honesty_on_recomputation(f3):
    den = [f3.from_int(2), f3.one, f3.zero, f3.one]
    low = _expand([f3.one], den, 20)
    high = _expand([f3.one], den, 50)
    assert high.truncate(20) == low


def test_division_remultiplication_fuzz(f3, f9):
    rng = random.Random(1033)
    for _ in range(300):
        field = f9 if rng.random() < 0.5 else f3
        a = random_series(rng, field, val_lo=-9, val_hi=4)
        b = random_series(rng, field, val_lo=-9, val_hi=4)
        if b.is_zero:
            continue
        q = a.divide(b)
        assert (q * b).agrees_with(a)


def test_deep_negative_valuations(f3):
    s = S(f3, {-6: 1, -4: 2}, -1)
    assert s.cube() == S(f3, {-18: 1, -12: 2}, -3)
    # -6 = 0 and -4 = 2 mod 3, so only the x^-4 term survives as 2*2*x^-5
    assert s.derivative() == S(f3, {-5: 1}, -2)
    inv = LaurentSeries.constant(f3, 1).divide(s)
    assert inv.val == 6
    assert (inv * s).agrees_with(LaurentSeries.constant(f3, 1))


# ---- the column form against the element loops ----------------------------------

COLUMN_FIELDS = [FieldParams(k) for k in range(1, 6)] + [
    # the dense degree-7 modulus of the kernel tests
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
]


def _element(rng, field, density):
    if rng.random() >= density:
        return field.zero
    return field.element([rng.randrange(3) for _ in range(field.degree)])


def _full_field_series(rng, field):
    """A series with coefficients anywhere in the field: negative valuations,
    empty, all-zero and zero-padded runs, and a precision that is infinite,
    past the run or cutting inside it."""
    val = rng.randint(-8, 6)
    density = rng.choice((1.0, 0.5, 0.0))
    run = [_element(rng, field, density) for _ in range(rng.randint(0, 14))]
    prec = rng.choice((INF, val + len(run) + rng.randint(0, 4), val + rng.randint(-2, len(run))))
    return LaurentSeries(field, val, run, prec)


def _same_coeffs(a, b):
    return (a.field, a.val, a.coeffs, a.prec) == (b.field, b.val, b.coeffs, b.prec)


@pytest.mark.parametrize("field", COLUMN_FIELDS, ids=lambda field: f"3^{field.degree}")
def test_column_ops_match_element_loops(field):
    rng = random.Random(f"columns:{field.degree}")
    twin = FieldParams(field.degree, field.modulus)
    for _ in range(150):
        a, b = _full_field_series(rng, field), _full_field_series(rng, field)
        assert a + b == elementwise_add(a, b)
        assert a - b == elementwise_add(a, b, subtract=True)
        assert -a == elementwise_neg(a)
        assert a.derivative() == elementwise_derivative(a)
        assert a.cube() == elementwise_cube(a)
        for residue in range(3):
            assert in_residue_class(a, residue) == elementwise_in_residue_class(a, residue)
        lo = a.val if a.val is not None else 0
        for e in range(lo - 2, lo + len(a.coeffs) + 3):
            if e < a.prec:
                assert a.coefficient(e) == elementwise_coefficient(a, e)
            else:
                with pytest.raises(PrecisionError):
                    a.coefficient(e)
        # products follow the precision rule; a one-coefficient factor c
        # (possibly zero, exact or not) scales the other run, in either order
        c = LaurentSeries(field, rng.randint(-4, 4), [_element(rng, field, 1.0)],
                          rng.choice((INF, rng.randint(-3, 9))))
        for x, y in ((a, b), (a, c), (c, a)):
            product = x * y
            assert product.prec == min(x.prec + _vbound(y), y.prec + _vbound(x))
            run = schoolbook_mul(x.coeffs, y.coeffs)
            assert product == (LaurentSeries(field, x.val + y.val, run, product.prec) if run
                               else LaurentSeries.zero(field, product.prec))
        # quotients reach the kernel's column functions directly
        if a.coeffs and b.coeffs:
            quotient = a.divide(b, prec=a.val - b.val + rng.randint(0, 16))
            n = quotient.prec - (a.val - b.val)
            run = schoolbook_mul(a.coeffs, schoolbook_inverse(b.coeffs, n), n) if n > 0 else []
            assert quotient == LaurentSeries(field, a.val - b.val, run, quotient.prec)
            if a.prec == b.prec == INF:
                assert a * b / b == a
        # equality and hash follow the coefficient runs, across equal fields
        assert (a == b) == _same_coeffs(a, b)
        cut = a.truncate(rng.randint(-9, 20))
        assert (a == cut) == _same_coeffs(a, cut)
        padded = LaurentSeries(twin, lo - 1, (field.zero,) + a.coeffs + (field.zero,), a.prec)
        assert padded == a and hash(padded) == hash(a) and _same_coeffs(padded, a)


# GF(3^1) .. GF(3^5), and GF(9) once more under a second modulus, t^2 + t + 2
SCALING_FIELDS = [FieldParams(k) for k in range(1, 6)] + [FieldParams(2, (2, 1, 1))]


def _field_id(field):
    return f"3^{field.degree}:" + "".join(map(str, field.modulus))


@pytest.mark.parametrize("field", SCALING_FIELDS, ids=_field_id)
def test_monomial_matches_from_terms(field):
    rng = random.Random(f"monomial:{_field_id(field)}")
    cases = [(0, field.zero, INF), (3, field.one, 3), (4, field.gen or 2, 3),
             (-2, 2, INF), (-5, field.one, -6), (-1, field.zero, 4)]
    for _ in range(200):
        exponent = rng.randint(-6, 6)
        coeff = rng.choice((rng.randint(-4, 4), _element(rng, field, 0.7)))
        prec = rng.choice((INF, exponent, exponent + rng.randint(-3, 6)))
        cases.append((exponent, coeff, prec))
    for exponent, coeff, prec in cases:
        got = LaurentSeries.monomial(field, exponent, coeff, prec)
        want = LaurentSeries.from_terms(field, {exponent: coeff}, prec)
        assert got == want and type(got.cols) is tuple, (exponent, coeff, prec)
    # a nonzero term below a prec that is not an int still fails the type check
    with pytest.raises(TypeError):
        LaurentSeries.monomial(field, 0, 1, 2.5)


@pytest.mark.parametrize("field", SCALING_FIELDS, ids=_field_id)
def test_scaling_by_every_constant_matches_elementwise_products(field):
    rng = random.Random(f"scaling:{_field_id(field)}")
    one_term = LaurentSeries(field, rng.randint(-4, 4), [_element(rng, field, 1.0) or field.one],
                             rng.choice((INF, 7)))
    inner = [_element(rng, field, 0.7) for _ in range(6)]
    many_terms = LaurentSeries(field, rng.randint(-4, 4), [field.one, *inner, -field.one], INF)
    for s in (one_term, many_terms, LaurentSeries.zero(field, 5)):
        for c in field.elements():
            want = (LaurentSeries(field, s.val or 0, [x * c for x in s.coeffs], s.prec) if c
                    else LaurentSeries.zero(field))
            assert s * c == want and c * s == want
            # c X^2 shifts as it scales, and cuts at the product's precision
            monomial = LaurentSeries.monomial(field, 2, c, prec=9)
            prec = min(s.prec + _vbound(monomial), 9 + _vbound(s))
            run = [x * c for x in s.coeffs]
            assert s * monomial == LaurentSeries(field, (s.val or 0) + 2, run, prec)
            assert monomial * s == s * monomial
            if c:
                assert s.divide(LaurentSeries.constant(field, c)) == s * c.inverse()


def test_one_packed_constant_scales_by_each_fields_own_matrix():
    # the generator is packed as 256 in both fields, but t^2 = 2 in one
    # and t^2 = 2t + 1 in the other, so its matrices over F3 differ
    columns = []
    for field in (FieldParams(2), FieldParams(2, (2, 1, 1))):
        s = LaurentSeries(field, 0, [field.one, field.gen], INF)
        product = s * field.gen
        assert product == LaurentSeries(field, 0, [field.gen, field.gen * field.gen], INF)
        columns.append(product.cols)
    assert columns == [(b"\x00\x02", b"\x01\x00"), (b"\x00\x01", b"\x01\x02")]


@pytest.mark.parametrize("degree", sorted(BOUNDARY_MODULI))
def test_cube_at_the_byte_slot_boundary(degree):
    field = FieldParams(degree, tuple(map(int, BOUNDARY_MODULI[degree])))
    twos = field.element((2,) * degree)
    s = LaurentSeries(field, -1, [twos, field.gen, field.zero, twos], 40)
    assert s.cube() == elementwise_cube(s)
    # the inverse cubes its partial inverses through the same Frobenius matrix
    inverse = LaurentSeries.constant(field, 1).divide(s)
    assert inverse == LaurentSeries(field, 1, schoolbook_inverse(list(s.coeffs), 41), 42)
    # a scaled digit also sums k products of at most 2*2, through the constant's matrix
    for factor in (twos, field.gen):
        assert s * factor == LaurentSeries(field, -1, [x * factor for x in s.coeffs], 40)
    # A digit of the cube sums k terms of at most 2*2 from the Frobenius
    # matrix; from k = 64 on that passes 255 unless cube reduces on the way.
    # The map is the same linear map for any matrix, so an all-2 matrix on
    # all-2 digits is the worst case: every digit becomes 4k = k (mod 3).
    ring = FieldParams(degree, field.modulus)
    ring._frobenius = ((2,) * degree,) * degree
    worst = LaurentSeries(ring, 0, [ring.element((2,) * degree)] * 2, INF)
    image = ring.element((degree % 3,) * degree)
    assert worst.cube() == LaurentSeries(ring, 0, [image, ring.zero, ring.zero, image], INF)
