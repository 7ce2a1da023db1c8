import copy
import functools
import itertools
import operator
import pickle
import random

import pytest

from char3iso import (
    CompatReport,
    CurveParams,
    FieldParams,
    FormalEndomorphism,
    FunctionalEquationReport,
    GeneratorUnavailable,
    IncompatibleSeed,
    LaurentSeries,
    MixedFields,
    ParseError,
    RationalFunction,
    Seed,
    construct_with_report,
    derive_map_pair,
    gf3field,
    parse_rational_function,
    verify_functional_equation,
)
from char3iso.cli import JobSpec
from char3iso.curve import MapCheckReport, _evaluate, _Logs, check_map
from char3iso.gf3field import DEFAULT_MODULI, FieldElement, solve_additive_cubic

from helpers import BOUNDARY_MODULI, is_irreducible_trial, oracle_add, oracle_mul, sqrt


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


# ---- packed digits against the tuple oracles ----------------------------------


def oracle_neg(a):
    return tuple((-x) % 3 for x in a)


def check_against_oracles(a, b):
    """Every packed operation on a and b, with b from an equal but distinct
    FieldParams, against tuple arithmetic on their coefficients."""
    modulus = a.field.modulus
    ca, cb = a.coeffs, b.coeffs
    assert (a + b).coeffs == oracle_add(ca, cb)
    assert (a - b).coeffs == oracle_add(ca, oracle_neg(cb))
    assert (-a).coeffs == oracle_neg(ca)
    assert (a * b).coeffs == oracle_mul(ca, cb, modulus)
    assert (a == b) == (ca == cb) == (b == a)
    if ca == cb:
        assert hash(a) == hash(b)
    if any(ca):
        one = (1,) + (0,) * (len(ca) - 1)
        assert oracle_mul(ca, a.inverse().coeffs, modulus) == one


def twin(field):
    return FieldParams(field.degree, field.modulus)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_packed_ops_match_tuple_oracles_exhaustive(degree):
    field = FieldParams(degree)
    elems = list(field.elements())
    assert [e.coeffs for e in elems] == list(itertools.product(range(3), repeat=degree))
    assert len(set(elems)) == field.order
    others = list(twin(field).elements())
    for a in elems:
        for b in others:
            check_against_oracles(a, b)


@pytest.mark.parametrize("degree", [5, 6, 7, 8])
def test_packed_ops_match_tuple_oracles_sampled(degree):
    rng = random.Random(degree * 4243)
    field = FieldParams(degree)
    other = twin(field)
    for _ in range(300):
        ca, cb = (tuple(rng.randrange(3) for _ in range(degree)) for _ in range(2))
        a, b = field.element(ca), other.element(rng.choice([ca, cb]))
        assert a.coeffs == ca
        check_against_oracles(a, b)


@pytest.mark.parametrize("degree", sorted(BOUNDARY_MODULI))
def test_packed_ops_at_the_byte_slot_boundary(degree):
    field = FieldParams(degree, tuple(map(int, BOUNDARY_MODULI[degree])))
    other = twin(field)
    rng = random.Random(degree)
    extremes = [(2,) * degree, (1,) * degree, (0,) * (degree - 1) + (2,)]
    pairs = [(x, y) for x in extremes for y in extremes]
    pairs += [tuple(tuple(rng.randrange(3) for _ in range(degree)) for _ in range(2))
              for _ in range(20)]
    for ca, cb in pairs:
        check_against_oracles(field.element(ca), other.element(cb))


def test_equal_field_params_interoperate():
    # an equal field built outside the intern table works with the interned one
    field, other = FieldParams(5), object.__new__(FieldParams)
    other.__init__(5, DEFAULT_MODULI[5])
    assert field is not other and field == other
    a, b = field.gen, other.gen
    assert a == b and hash(a) == hash(b)
    assert a - b == field.zero and (a * b).coeffs == (0, 0, 1, 0, 0)
    assert a / b == field.one and {a: "v"}.get(b) == "v"


@pytest.mark.parametrize("other", [FieldParams(4), FieldParams(5, (1, 0, 0, 0, 2, 1))],
                         ids=["degree", "modulus"])
def test_different_fields_still_raise_mixed_fields(other):
    a, b = FieldParams(5).gen, other.gen
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(MixedFields):
            op(a, b)
    assert a != b


# ---- one object per field in a process ------------------------------------------

def test_field_params_are_interned():
    for k, modulus in DEFAULT_MODULI.items():
        field = FieldParams(k)
        assert field is FieldParams(k) is FieldParams(k, modulus)
        # the modulus is normalised: any sequence, digits reduced mod 3
        assert FieldParams(k, [c + 3 for c in modulus]) is field


@pytest.mark.parametrize("degree, modulus, message", [
    (2, (2, 0, 1), "modulus is reducible over F3"),  # t^2 + 2 = (t + 1)(t + 2)
    (4, (1, 0, 2, 0, 1), "modulus is reducible over F3"),  # (t^2 + 1)^2
    (2, (1, 0, 2), "modulus must be monic"),
    (2, (1, 1), "modulus degree does not match field degree"),
    (0, (1,), "degree must be a positive integer"),
])
def test_a_bad_modulus_raises_on_every_call_and_leaves_no_entry(degree, modulus, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            FieldParams(degree, modulus)
        assert (degree, modulus) not in gf3field._FIELDS


def test_distinct_moduli_of_one_degree_are_distinct_fields():
    # with their own memos; test_different_fields_still_raise_mixed_fields
    # mixes their elements
    field, other = FieldParams(5), FieldParams(5, (1, 0, 0, 0, 2, 1))
    assert other is FieldParams(5, (1, 0, 0, 0, 2, 1)) and other is not field
    assert other != field and other._inverses is not field._inverses
    assert field.gen.inverse() * field.gen == field.one
    assert other.gen.inverse() * other.gen == other.one
    assert field.gen.inverse().packed != other.gen.inverse().packed


@pytest.mark.parametrize("field", [FieldParams(1), FieldParams(5),
                                   FieldParams(5, (1, 0, 0, 0, 2, 1))],
                         ids=["3^1", "3^5", "3^5-modulus"])
def test_copies_and_pickles_return_the_interned_field(field):
    assert copy.copy(field) is field and copy.deepcopy(field) is field
    assert copy.deepcopy([field])[0] is field
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(field, protocol)) is field


@functools.cache
def _library_values():
    """One value of each type the library returns, and each error that takes
    more than a message, over GF(9)."""
    field = FieldParams(2)
    curve = CurveParams(field, A=1, B=2, c=1)
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", field))
    report, endos = construct_with_report(curve, seed, prec=64)
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", field)
    errors = {}
    for text, over in (("x+)", field), ("t", FieldParams(1))):
        with pytest.raises(ParseError) as err:
            parse_rational_function(text, over)
        errors[type(err.value)] = err.value
    return {
        FieldElement: field.gen, LaurentSeries: endos[0].eta, RationalFunction: eta,
        CurveParams: curve, Seed: seed, FormalEndomorphism: endos[0], CompatReport: report,
        FunctionalEquationReport: verify_functional_equation(curve, eta + 1),
        MapCheckReport: check_map(curve, *derive_map_pair(curve, eta), 10),
        JobSpec: JobSpec(field, curve, 64, "records"),
        IncompatibleSeed: IncompatibleSeed("no root", report), **errors,
    }


# each type, and where a field is reached from its values
FIELD_OF = [
    (FieldElement, "field"), (LaurentSeries, "field"), (RationalFunction, "field"),
    (CurveParams, "field"), (Seed, "source.field"), (FormalEndomorphism, "eta.field"),
    (CompatReport, "psi0.field"), (FunctionalEquationReport, "first_bad_coefficient.field"),
    (MapCheckReport, None), (JobSpec, "curve.A.field"), (ParseError, None),
    (GeneratorUnavailable, None), (IncompatibleSeed, "report.psi0.field"),
]


@pytest.mark.parametrize("kind, field_of", FIELD_OF, ids=[kind.__name__ for kind, _ in FIELD_OF])
def test_every_library_value_copies_and_pickles(kind, field_of):
    value = _library_values()[kind]
    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is kind
        if isinstance(value, Exception):
            assert str(other) == str(value)
            for name in ("offset", "message", "report"):
                assert getattr(other, name, None) == getattr(value, name, None)
        else:
            assert other == value
        if field_of is not None:
            assert operator.attrgetter(field_of)(other) is FieldParams(2)


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


# ---- Zech's log tables of curve's log layer ---------------------------------
@pytest.mark.parametrize("field", [FieldParams(k) for k in (1, 2, 3)] + [
    FieldParams(11, (1, 0, 2) + (0,) * 8 + (1,)),  # t^11 + 2 t^2 + 1
], ids=lambda field: f"3^{field.degree}")
def test_element_text_is_formatted_once_per_value(field, monkeypatch):
    # each field keeps one table of texts, filled as values are printed, and
    # an equal field is the same object with the same table; earlier tests
    # may have filled it, so a value found there is formatted no more
    formatted, missing = [], gf3field._Names.__missing__

    def format_once(table, packed):
        formatted.append(packed)
        return missing(table, packed)

    monkeypatch.setattr(gf3field._Names, "__missing__", format_once)
    before = set(field._names)
    rng = random.Random(field.order)
    elems = (list(field.elements()) if field.order <= 27 else
             [field.element([rng.randrange(3) for _ in range(11)]) for _ in range(50)])
    for e in elems:
        terms = [(str(c) if i == 0 else ("" if c == 1 else f"{c}*") + f"t^{i}".removesuffix("^1"))
                 for i, c in enumerate(e.coeffs) if c]
        assert str(e) == ("+".join(terms) or "0")
        assert str(FieldElement._from_packed(field, e.packed)) is str(e)
    packed = {e.packed for e in elems}
    assert sorted(formatted) == sorted(packed - before)
    assert packed <= set(field._names)
    twin = FieldParams(field.degree, field.modulus)
    assert twin is field and twin._names is field._names


# The enumeration and the group law of char3iso.curve run on logs, with the
# arithmetic written out in _evaluate and _add; these check the layer's
# tables, and the products and sums of _evaluate, against packed arithmetic.

def check_logs_against_packed(logs, a, b):
    """Products, sums, differences and negation of the logs of a and b, as
    _evaluate runs of polynomials with those logs as coefficients over the
    batch a, b, 0, against Horner's rule in FieldElement arithmetic; zero
    is None in the layer, 1 is g^0 and -1 is g^(n/2). The batch holds
    a * b, a + b, a - b, -a and (a * b + b) * b + a among its values."""
    n, zero, one = a.field.order - 1, a.field.zero, a.field.one
    la, lb = logs.log.get(a.packed), logs.log.get(b.packed)
    A, B, O, I, M = (la, a), (lb, b), (None, zero), (0, one), (n // 2, -one)
    for poly in [(A, O), (I, B), (M, A), (M, O), (A, B, A), (I, O, M), (O, O), ()]:
        coeffs, elements = tuple(zip(*poly)) or ((), ())
        want = []
        for x in (a, b, zero):
            acc = zero
            for c in elements:
                acc = acc * x + c
            want.append(logs.log.get(acc.packed))
        assert _evaluate(logs, coeffs, [la, lb, None]) == want, (a, b, poly)
    cases = []
    if b:
        cases.append((None if la is None else (la - lb) % n, a / b))
        cases += [(lb * e % n, b ** e) for e in (0, 1, 2, 3, n - 1, n, n + 1, 3 * n + 5, -1, -2)]
    for got, want in cases:
        assert got == logs.log.get(want.packed), (a, b)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_log_tables_match_packed_arithmetic_exhaustive(degree):
    field = FieldParams(degree)
    logs = _Logs(field)
    elems = list(field.elements())
    for a in elems:
        for b in elems:
            check_logs_against_packed(logs, a, b)


@pytest.mark.parametrize("field", [FieldParams(k) for k in range(5, 11)] + [
    FieldParams(5, (1, 0, 0, 0, 2, 1)),
    # the dense degree-7 modulus of the kernel tests
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
], ids=lambda field: f"3^{field.degree}:{''.join(map(str, field.modulus))}")
def test_log_tables_match_packed_arithmetic_sampled(field):
    logs = _Logs(field)
    rng = random.Random(field.order)
    elems = [field.element(tuple(rng.randrange(3) for _ in range(field.degree)))
             for _ in range(200)] + [field.zero, field.one, -field.one]
    for _ in range(300):
        check_logs_against_packed(logs, rng.choice(elems), rng.choice(elems))


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_antilog_list_is_a_permutation_of_the_units(degree):
    field = FieldParams(degree)
    logs = _Logs(field)
    n = field.order - 1
    assert len(logs.exp) == n
    assert sorted(logs.exp) == sorted(e.packed for e in field.elements() if e)
    assert all(logs.log[p] == i for i, p in enumerate(logs.exp))
    assert logs.xs == [logs.log.get(e.packed) for e in field.elements()]
    for d, power in enumerate(logs.exp):
        one_plus = field.element(power.to_bytes(degree, "little")) + 1
        assert logs.zech[d] == logs.log.get(one_plus.packed)
    assert _Logs(FieldParams(degree)) is logs  # an equal field keeps the tables


def test_log_tables_zero_operands():
    # zero is None: a zero x gives the constant term at once, a zero
    # coefficient adds nothing, and a sum that cancels is zero
    field = FieldParams(3)
    logs = _Logs(field)
    e = field.gen + 1
    a = logs.log[e.packed]
    neg_a = (a + logs.n // 2) % logs.n

    def at(coeffs, *xs):
        return _evaluate(logs, coeffs, list(xs))

    assert at((a, None), None) == [None] and at((a, a), None) == [a]
    assert at((None, a), a) == [a] and at((0, None), a) == [a]
    assert at((None, None), a) == [None] and at((None, None), None) == [None]
    assert at((), a) == [None] and at((), None) == [None] and at((a, a)) == []
    assert at((0, neg_a), a) == [None] and at((neg_a, a), 0) == [None]
    assert at((0, None, neg_a), a) == [logs.log[(e * e - e).packed]]
    # in one batch: the sum that cancels, the constant term at zero, 1 - e
    assert at((0, neg_a), a, None, 0) == [None, neg_a, logs.log[(1 - e).packed]]


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


def accepts(poly):
    """Whether FieldParams takes the monic poly (int list, lowest degree
    first) as a modulus; it rejects a reducible one with ValueError."""
    try:
        FieldParams(len(poly) - 1, poly)
    except ValueError:
        return False
    return True


def poly_mul_f3(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 3
    return out


def test_default_moduli_are_first_irreducible():
    for degree, modulus in DEFAULT_MODULI.items():
        assert len(modulus) == degree + 1
        assert modulus[-1] == 1
        assert is_irreducible_trial(list(modulus)) and accepts(list(modulus))
        # nothing earlier in base-3 counting order is irreducible
        value = sum(c * 3 ** i for i, c in enumerate(modulus[:-1]))
        for earlier in range(value):
            cand = []
            v = earlier
            for _ in range(degree):
                cand.append(v % 3)
                v //= 3
            assert not is_irreducible_trial(cand + [1]) and not accepts(cand + [1])


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
            assert accepts(poly) == is_irreducible_trial(poly), poly


def test_product_of_distinct_quartics_rejected_in_degree_64():
    # Each irreducible quartic divides t^(3^4) - t, and so t^(3^64) - t: the
    # last condition of Rabin's test holds, and the product is rejected by
    # the unit condition at d = 4 alone, in the wide product slots of k = 64.
    quartics = [list(tail) + [1] for tail in itertools.product(range(3), repeat=4)
                if is_irreducible_trial(list(tail) + [1])][:16]
    assert len(quartics) == 16
    product = [1]
    for q in quartics:
        product = poly_mul_f3(product, q)
    assert len(product) == 65 and product[-1] == 1
    with pytest.raises(ValueError, match="reducible"):
        FieldParams(64, product)


def test_rabin_reads_a_zero_inverse_as_a_common_factor(monkeypatch):
    # (t + 1)(t^3 + 2t + 1): t^3 - t is a nonzero zero divisor modulo it, so
    # the unit condition at d = 1 fails through inverse() returning zero
    modulus = poly_mul_f3([1, 1], list(DEFAULT_MODULI[3]))
    inverses = []
    original = FieldElement.inverse

    def recorded(self):
        inverses.append(original(self))
        return inverses[-1]

    monkeypatch.setattr(FieldElement, "inverse", recorded)
    assert not accepts(modulus)
    assert len(inverses) == 1 and inverses[0].is_zero


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
