import itertools
import random

import pytest

from char3iso import FieldParams, MixedFields
from char3iso.gf3field import DEFAULT_MODULI, _is_irreducible_f3, solve_additive_cubic

from helpers import is_irreducible_trial, oracle_add, oracle_mul, sqrt


@pytest.mark.parametrize("degree", [1, 2])
def test_binary_ops_match_remaindering_oracle(degree):
    field = FieldParams(degree)
    elems = list(field.elements())
    for a in elems:
        for b in elems:
            assert (a + b).coeffs == oracle_add(a.coeffs, b.coeffs)
            assert (a * b).coeffs == oracle_mul(a.coeffs, b.coeffs, field.modulus)


@pytest.mark.parametrize("degree", [1, 2])
def test_inverses_and_unit_laws(degree):
    field = FieldParams(degree)
    for a in field.elements():
        assert a + field.zero == a
        assert a * field.one == a
        if not a.is_zero:
            assert a * a.inverse() == field.one
            assert a / a == field.one


def test_sampled_ring_axioms():
    rng = random.Random(314)
    field = FieldParams(3)
    elems = list(field.elements())
    for _ in range(500):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


@pytest.mark.parametrize("degree", [3, 4])
def test_sampled_products_match_oracle_higher_degree(degree):
    rng = random.Random(degree * 1297)
    field = FieldParams(degree)
    elems = list(field.elements())
    for _ in range(400):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a * b).coeffs == oracle_mul(a.coeffs, b.coeffs, field.modulus)


def test_characteristic_three():
    field = FieldParams(1)
    assert field.from_int(1) + field.from_int(2) == field.zero
    for a in field.elements():
        assert a + a + a == field.zero


def test_gf9_generator_square(f9):
    assert f9.gen * f9.gen == f9.from_int(2)
    assert f9.from_int(2).inverse() == f9.from_int(2)


@pytest.mark.parametrize("degree", [1, 2])
def test_frobenius_is_field_automorphism_exhaustive(degree):
    field = FieldParams(degree)
    elems = list(field.elements())
    for a in elems:
        assert a.frobenius() == a * a * a
        for b in elems:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_frobenius_random_pairs_degree_three():
    rng = random.Random(2718)
    field = FieldParams(3)
    elems = list(field.elements())
    for _ in range(1000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_frobenius_fixes_prime_field(f3):
    for a in f3.elements():
        assert a.frobenius() == a


def test_frobenius_of_generator(f9):
    # t^3 = t^2 * t = -t
    assert f9.gen.frobenius() == f9.element((0, 2))


def test_hash_agrees_with_equality(f3, f9):
    # elements equal to an int must hash like it, so dict and set lookups
    # find them by either key
    for field in (f3, f9):
        for n in (0, 1, 2):
            element = field.from_int(n)
            assert element == n and hash(element) == hash(n)
            assert {n: "v"}.get(element) == "v"
            assert {element: "v"}.get(n) == "v"
            assert element in {n} and n in {element}
    # other ints are never equal, since their hashes cannot agree
    for field in (f3, f9):
        for n in (-1, 3, 4):
            element = field.from_int(n)
            assert element != n and n != element
            assert {n: "v"}.get(element) is None
            assert element not in {n}
    assert f9.gen not in {0, 1, 2}
    assert len({e for e in f9.elements()} | {0, 1, 2}) == 9
    assert {f9.element((1, 2)): "v"}.get(f9.element((1, 2))) == "v"


def test_mixed_fields_rejected(f3, f9):
    with pytest.raises(MixedFields):
        f3.one + f9.one
    with pytest.raises(MixedFields):
        f3.one * f9.from_int(2)


@pytest.mark.parametrize("field", [FieldParams(k) for k in range(1, 7)] + [
    # the dense degree-7 modulus of the kernel tests
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
], ids=lambda field: f"3^{field.degree}")
def test_inverse_exhaustive(field):
    for a in field.elements():
        if not a.is_zero:
            assert a * a.inverse() == field.one


def test_inverse_of_zero(f3):
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


def test_negative_powers(f9):
    t = f9.gen
    assert t ** -1 == t.inverse()
    assert t ** -2 == (t * t).inverse()
    assert t ** 0 == f9.one


# ---- additive cubic solver -------------------------------------------------


def test_additive_cubic_goldens(f3, f9):
    roots = solve_additive_cubic(f3.from_int(-1), f3.zero)
    assert {e.coeffs[0] for e in roots} == {0, 1, 2}
    roots = solve_additive_cubic(f3.one, f3.zero)
    assert {e.coeffs[0] for e in roots} == {0}
    roots = solve_additive_cubic(f9.one, f9.one)
    assert {str(e) for e in roots} == {"2", "2+t", "2+2*t"}


def test_additive_cubic_zero_linear_term(f3):
    with pytest.raises(ValueError):
        solve_additive_cubic(f3.zero, f3.one)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_additive_cubic_matches_brute_force(degree):
    rng = random.Random(degree * 7919)
    field = FieldParams(degree)
    elems = list(field.elements())
    for _ in range(6):
        a = rng.choice(elems[1:])
        b = rng.choice(elems)
        expected = {t for t in elems if t.frobenius() + a * t == b}
        got = set(solve_additive_cubic(a, b))
        assert got == expected
        assert len(got) in (0, 1, 3)


def test_additive_cubic_result_order(f9):
    roots = solve_additive_cubic(f9.one, f9.one)
    assert [e.coeffs for e in roots] == sorted(e.coeffs for e in roots)


# ---- square roots ------------------------------------------------------------


def test_sqrt_goldens(f3, f9):
    assert sqrt(f3.one) == f3.one
    assert sqrt(f3.from_int(2)) is None
    assert sqrt(f9.from_int(2)) == f9.gen  # t^2 = 2; t beats 2t lexicographically


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_sqrt_presence_and_value(degree):
    field = FieldParams(degree)
    half = (field.order - 1) // 2
    for a in field.elements():
        s = sqrt(a)
        if a.is_zero:
            assert s == field.zero
            continue
        euler = a ** half
        if euler == field.one:
            assert s is not None
            assert s * s == a
            assert s == min(s, -s, key=lambda e: e.coeffs)
        else:
            assert s is None


# ---- field parameter validation ---------------------------------------------


def test_default_moduli_are_first_irreducible():
    for degree, modulus in DEFAULT_MODULI.items():
        assert len(modulus) == degree + 1
        assert modulus[-1] == 1
        assert _is_irreducible_f3(list(modulus))
        # nothing earlier in base-3 counting order is irreducible
        value = sum(c * 3 ** i for i, c in enumerate(modulus[:-1]))
        for earlier in range(value):
            cand = []
            v = earlier
            for _ in range(degree):
                cand.append(v % 3)
                v //= 3
            assert not _is_irreducible_f3(cand + [1])


def test_default_moduli_accepted():
    for degree, modulus in DEFAULT_MODULI.items():
        assert FieldParams(degree, modulus).modulus == modulus


def test_reducible_modulus_rejected_above_degree_8():
    # t^9 + 2t = t^9 - t, the product of t - a over all a in GF(9)
    with pytest.raises(ValueError):
        FieldParams(9, (0, 2, 0, 0, 0, 0, 0, 0, 0, 1))


def test_rabin_matches_trial_factorization():
    for degree in range(1, 6):
        for tail in itertools.product(range(3), repeat=degree):
            poly = list(tail) + [1]
            assert _is_irreducible_f3(poly) == is_irreducible_trial(poly), poly


def test_irreducible_modulus_accepted_above_degree_8():
    # t^10 + 2t^2 + 1 is irreducible over F3 (no factor of degree <= 5)
    modulus = (1, 0, 2) + (0,) * 7 + (1,)
    assert is_irreducible_trial(list(modulus))
    field = FieldParams(10, modulus)
    t = field.gen
    assert t * t.inverse() == field.one


def test_reducible_modulus_rejected():
    # t^2 + 2 = (t+1)(t+2)
    with pytest.raises(ValueError):
        FieldParams(2, (2, 0, 1))


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError):
        FieldParams(2, (1, 0, 2))


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        FieldParams(2, (1, 1))


def test_custom_modulus_changes_arithmetic():
    # t^2 + 2t + 2 is the other irreducible quadratic family member
    field = FieldParams(2, (2, 2, 1))
    t = field.gen
    assert t * t == field.element((1, 1))  # t^2 = -2t - 2 = t + 1


def test_element_printing_round_trip_shape(f9):
    assert str(f9.zero) == "0"
    assert str(f9.one) == "1"
    assert str(f9.gen) == "t"
    assert str(f9.element((2, 1))) == "2+t"
    assert str(f9.element((0, 2))) == "2*t"
