"""The Kronecker-substituted coefficient kernel against the schoolbook
oracle in helpers, from runs short enough for the coefficient loop at
the bottom of Newton's iteration to runs of hundreds of coefficients."""

import random

import pytest

from char3iso import FieldElement, FieldParams, kronecker

from helpers import schoolbook_divmod, schoolbook_inverse, schoolbook_mul

FIELDS = [FieldParams(k) for k in range(1, 6)] + [
    # a dense degree-7 modulus, so every high power of t folds into many digits
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
]
LENGTHS = (0, 1, 2, 3, 4, 5, 8, 15, 16, 17, 33, 64, 100, 300)


def _field_id(field):
    return f"3^{field.degree}"


def _run(rng, field, length, density=1.0):
    run = []
    for _ in range(length):
        if rng.random() < density:
            run.append(field.element([rng.randrange(3) for _ in range(field.degree)]))
        else:
            run.append(field.zero)
    return run


def _unit(rng, field):
    while True:
        c = field.element([rng.randrange(3) for _ in range(field.degree)])
        if not c.is_zero:
            return c


def _pairs(rng):
    """Length pairs over LENGTHS; the long-by-long ones are sampled so the
    quadratic oracle stays affordable."""
    pairs = [(la, lb) for la in LENGTHS for lb in LENGTHS if la * lb <= 1700]
    big = [(la, lb) for la in LENGTHS for lb in LENGTHS if la * lb > 1700]
    return pairs + rng.sample(big, 1) + [(300, 300)]


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_mul_matches_schoolbook(field):
    rng = random.Random(f"mul:{field.degree}")
    for la, lb in _pairs(rng):
        density = rng.choice((1.0, 0.3))
        a, b = _run(rng, field, la, density), _run(rng, field, lb, density)
        full = max(0, la + lb - 1)
        product = schoolbook_mul(a, b)
        assert kronecker.mul(a, b) == product, (la, lb)
        for n in {0, 1, full // 2, full - 1, full, full + 7}:
            assert kronecker.mul(a, b, n) == product[:max(0, n)], (la, lb, n)
        if la <= 33:
            assert kronecker.mul(a, a) == schoolbook_mul(a, a), la


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_inverse_matches_schoolbook(field):
    rng = random.Random(f"inverse:{field.degree}")
    for lb in LENGTHS[1:]:
        b = [_unit(rng, field)] + _run(rng, field, lb - 1, rng.choice((1.0, 0.3)))
        for n in sorted({1, 2, 3, 4, 5, 16, 17, lb - 1, lb, lb + 9, 300}):
            if n < 1 or n * lb > 10000:
                continue
            assert kronecker.inverse(b, n) == schoolbook_inverse(b, n), (lb, n)


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_divmod_matches_schoolbook(field):
    rng = random.Random(f"divmod:{field.degree}")
    for la, lb in _pairs(rng):
        if lb == 0:
            continue
        a = _run(rng, field, la, rng.choice((1.0, 0.3)))
        b = _run(rng, field, lb - 1, rng.choice((1.0, 0.3))) + [_unit(rng, field)]
        if lb > 1 and rng.random() < 0.5:
            b[0] = field.zero  # divisors with a zero constant term
        q, r = kronecker.divmod(a, b)
        q_ref, r_ref = schoolbook_divmod(a, b)
        assert (q, r) == (q_ref, r_ref), (la, lb)
        assert len(r) < lb and (not r or not r[-1].is_zero)
        back = schoolbook_mul(b, q) + [field.zero] * la
        back = [x + (r[i] if i < len(r) else field.zero) for i, x in enumerate(back[:la])]
        assert back == a, (la, lb)


def test_inverse_needs_a_unit_constant_term(f9):
    with pytest.raises(ZeroDivisionError):
        kronecker.inverse([f9.zero, f9.one], 8)
    with pytest.raises(ZeroDivisionError):
        kronecker.inverse([], 8)


def test_divmod_by_zero(f9):
    with pytest.raises(ZeroDivisionError):
        kronecker.divmod([f9.one], [])
    with pytest.raises(ZeroDivisionError):
        kronecker.divmod([f9.one], [f9.one, f9.zero])


def test_fold_keeps_bytes_below_256_in_large_degrees():
    # Folding t^k .. t^(2k-2) adds up to k-1 terms of at most 2*2 to each
    # digit; from k = 65 on that passes 255 unless the kernel reduces on
    # the way. The fold is the same linear map for any table of high
    # powers, so an all-2 table with all-2 high digits is the worst case,
    # and FieldElement.__mul__ applies the same table.
    k = 70
    ring = object.__new__(FieldParams)
    ring.degree, ring.modulus = k, (0,) * k + (1,)
    ring._high_powers = ((2,) * k,) * (k - 1)
    a = [FieldElement(ring, (0,) * (k - 1) + (2,))]
    b = [FieldElement(ring, (1,) * k)]
    assert kronecker.mul(a, b) == [a[0] * b[0]]
