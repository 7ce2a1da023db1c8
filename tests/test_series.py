import random

import pytest

from char3iso import (
    LaurentSeries,
    MixedFields,
    PrecisionError,
    ZeroDenominator,
    ZeroDivisor,
)
from char3iso.series import INF, expand_rational

from helpers import (
    Homogeneity,
    homogeneity_class,
    oracle_expand,
    random_series,
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
    inv = S(f3, {0: 1, 1: 2}, 8).inverse()
    assert inv == S(f3, {e: 1 for e in range(8)}, 8)


def test_inverse_of_cube_plus_two(f3):
    # long-division oracle value; re-multiplication is the identity check
    s = S(f3, {0: 2, 3: 1})
    inv = s.inverse(prec=12)
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
        LaurentSeries.zero(f3, 10).inverse()


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


def test_zero_series_semantics(f3):
    z = LaurentSeries.zero(f3, 10)
    assert z.is_zero and not z.is_exactly_zero
    assert LaurentSeries.zero(f3).is_exactly_zero
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


def test_expand_geometric(f3):
    s = expand_rational([f3.one], [f3.one, f3.from_int(-1)], 6)
    assert s == S(f3, {e: 1 for e in range(6)}, 6)


def test_expand_self_quotient(f3):
    s = expand_rational([f3.zero, f3.one], [f3.zero, f3.one], 8)
    assert s == S(f3, {0: 1}, 8)


def test_expand_matches_independent_oracle(f3):
    # x^2 / (x^9 + x^3 - 1)
    num = [0, 0, 1]
    den = [-1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    expected = oracle_expand(num, den, 30)
    s = expand_rational([f3.from_int(c) for c in num],
                        [f3.from_int(c) for c in den], 30)
    assert {e: c.coeffs[0] for e, c in s.nonzero_terms()} == expected
    assert dict(s.nonzero_terms())[2] == f3.from_int(2)
    assert dict(s.nonzero_terms())[11] == f3.one


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
        s = expand_rational(num, den, 24)
        back = s * LaurentSeries.from_coeffs(field, 0, den)
        assert back.agrees_with(LaurentSeries.from_coeffs(field, 0, num))


def test_expand_zero_denominator(f3):
    with pytest.raises(ZeroDenominator):
        expand_rational([f3.one], [f3.zero], 10)


def test_precision_honesty_on_recomputation(f3):
    den = [f3.from_int(2), f3.one, f3.zero, f3.one]
    low = expand_rational([f3.one], den, 20)
    high = expand_rational([f3.one], den, 50)
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
    inv = s.inverse()
    assert inv.val == 6
    assert (inv * s).agrees_with(LaurentSeries.constant(f3, 1))
