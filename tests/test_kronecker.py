"""The Kronecker-substituted coefficient kernel against the schoolbook
oracle in helpers, from one-coefficient runs to runs of hundreds of
coefficients, and inverses on both sides of each tripling of precision.
The kernel works on columns; pack and unpack in helpers convert runs of
FieldElements without going through the kernel's own _columns/_elements."""

import random

import pytest

from char3iso import FieldElement, FieldParams, LaurentSeries, ZeroDivisor, kronecker

from helpers import (
    BOUNDARY_MODULI,
    pack,
    poly_rem,
    run_sub,
    schoolbook_divmod,
    schoolbook_inverse,
    schoolbook_mul,
    trim,
    unpack,
)

FIELDS = [FieldParams(k) for k in range(1, 6)] + [
    # a dense degree-7 modulus, so every high power of t folds into many digits
    FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1)),
]
LENGTHS = (0, 1, 2, 3, 4, 5, 8, 15, 16, 17, 33, 64, 100, 300)
# an inverse to n coefficients cubes one to ceil(n/3): precisions on both
# sides of 3^j
TRIPLING = (8, 9, 10, 26, 27, 28, 81, 82, 243, 244)


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


def _mul(field, a, b, n):
    ca = pack(field, a)
    return unpack(field, kronecker._mul_cols(field, ca, ca if b is a else pack(field, b), n))


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_mul_matches_schoolbook(field):
    rng = random.Random(f"mul:{field.degree}")
    for la, lb in _pairs(rng):
        density = rng.choice((1.0, 0.3))
        a, b = _run(rng, field, la, density), _run(rng, field, lb, density)
        if not a or not b:  # the kernel takes nonempty runs; an empty one is the zero polynomial
            assert (LaurentSeries.from_coeffs(field, 0, a)
                    * LaurentSeries.from_coeffs(field, 0, b)).is_zero
            continue
        assert kronecker._columns([c.packed for c in a], field.degree) == pack(field, a)
        assert kronecker._elements(field, pack(field, a)) == a
        assert list(kronecker._packed(pack(field, a))) == [c.packed for c in a]
        full = la + lb - 1
        product = schoolbook_mul(a, b) + [field.zero] * 7  # the kernel pads past full
        for n in {1, full // 2, full - 1, full, full + 7} - {0}:
            assert _mul(field, a, b, n) == product[:n], (la, lb, n)
        if la <= 33:
            assert _mul(field, a, a, 2 * la - 1) == schoolbook_mul(a, a), la


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_inverse_matches_schoolbook(field, monkeypatch):
    rng = random.Random(f"inverse:{field.degree}")
    for lb in LENGTHS[1:]:
        b = [_unit(rng, field)] + _run(rng, field, lb - 1, rng.choice((1.0, 0.3)))
        for n in sorted({1, 2, 3, 4, 5, 16, 17, lb - 1, lb, lb + 9, 300, *TRIPLING}):
            if n < 1 or n * lb > 10000:
                continue
            inverse = unpack(field, kronecker._inverse_cols(field, pack(field, b), n))
            assert inverse == schoolbook_inverse(b, n), (lb, n)
    # sparse short divisors, like a seed's denominator or c^2 (X^3 + B):
    # b^2 is shorter than n, and its top coefficient is nonzero
    for lb in (2, 4, 7, 10):
        b = [_unit(rng, field)] + _run(rng, field, lb - 2, 0.3) + [_unit(rng, field)]
        for n in TRIPLING + (300,):
            inverse = unpack(field, kronecker._inverse_cols(field, pack(field, b), n))
            assert inverse == schoolbook_inverse(b, n), (lb, n)
    # divisors in X^3 and in X^9, dense and sparse, like gamma and Pade's
    # divisors, are inverted in X^3 (one call per level of the recursion);
    # one coefficient off the class sends a divisor down the Frobenius
    # levels, in a single call
    calls = []
    inverse_cols = kronecker._inverse_cols

    def counting(field, b, n):
        calls.append(n)
        return inverse_cols(field, b, n)

    monkeypatch.setattr(kronecker, "_inverse_cols", counting)
    for step, lb, density in ((3, 12, 1.0), (3, 30, 0.3), (9, 5, 1.0), (9, 12, 0.3)):
        b = [field.zero] * ((lb - 1) * step + 1)
        b[::step] = [_unit(rng, field)] + _run(rng, field, lb - 1, density)
        divisors = [b]
        for at in (1, rng.choice([i for i in range(1, len(b)) if i % 3])):
            divisors.append(list(b))
            divisors[-1][at] = _unit(rng, field)
        for divisor in divisors:
            expected = schoolbook_inverse(divisor, max(TRIPLING))
            for n in (1, 2, 3, 4) + TRIPLING:
                run = divisor[:n]  # as callers cut it
                calls.clear()
                inverse = unpack(field, kronecker._inverse_cols(field, pack(field, run), n))
                assert inverse == expected[:n], (step, lb, n)
                in_class = not any(c for i, c in enumerate(run) if i % 3)
                assert (len(calls) > 1) == (n > 1 and in_class), (step, lb, n)
                if divisor is b and step == 9 and n > 3:  # in X^9: in X^3 twice over
                    assert len(calls) >= 3, (lb, n)


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_scale_matrix_multiplies_by_the_element(field):
    rng = random.Random(f"scale:{field.degree}")
    powers = [field.element([int(i == j) for i in range(field.degree)])
              for j in range(field.degree)]
    elements = list(field.elements()) if field.degree <= 3 else [
        _unit(rng, field) for _ in range(60)]
    for c in elements:
        rows = kronecker._scale_matrix(field, c.packed)
        assert [tuple(row[j] for row in rows) for j in range(field.degree)] == [
            (c * t).coeffs for t in powers], c


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_cube_packed_is_the_frobenius(field):
    for c in field.elements():
        assert kronecker._cube_packed(field, c.packed) == c.frobenius().packed, c


def _with_remainder(field, a, r):
    """The run a plus the shorter run r."""
    return [x + (r[i] if i < len(r) else field.zero) for i, x in enumerate(a)]


def _sparse_quotients(rng, field):
    """(a, b) with a = q b + r for quotients q of one to three nonzero terms,
    short and long, and r of every length below deg b, zero included."""
    for lq in (1, 2, 40, 300):
        for lb in (1, 2, 5, 33):
            q = [field.zero] * lq
            for at in {lq - 1, *(rng.randrange(lq) for _ in range(rng.randint(0, 2)))}:
                q[at] = _unit(rng, field)
            b = _run(rng, field, lb - 1, rng.choice((1.0, 0.3))) + [_unit(rng, field)]
            r = _run(rng, field, rng.randrange(lb), 0.5)
            a = schoolbook_mul(q, b)
            yield _with_remainder(field, a, r), b


def _low_trimmed(run):
    """The run from its first nonzero coefficient, and that coefficient's index."""
    v = next((i for i, c in enumerate(run) if not c.is_zero), len(run))
    return run[v:], v


def _divide(field, a, b, ua=(), ub=()):
    """One division of the Euclid kernel on the runs a and b, carrying the
    cofactors ua and ub above the remainders: its stop is deg b - 1, so it
    returns (a mod b, ua - q ub), both trimmed."""
    split = max(len(a), len(b))
    n = split + len(ua) + len(a) + len(ub)  # room for q ub
    runs = []
    for r, u in ((a, ua), (b, ub)):
        cols = [bytearray(n) for _ in range(field.degree)]
        for at, part in ((0, r), (split, u)):
            for c, p in zip(cols, pack(field, part)):
                c[at:at + len(p)] = p
        runs.append(cols)
    run = kronecker._euclid(field, *runs, split, len(trim(b)) - 2)[1]
    return tuple(trim(unpack(field, [c[lo:hi] for c in run]))
                 for lo, hi in ((0, split), (split, n)))


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_divmod_matches_schoolbook(field):
    # one division of the Euclid kernel, remainder and cofactor, and exact
    # and inexact series division, all against long division from the top
    rng = random.Random(f"divmod:{field.degree}")
    cases = []
    for la, lb in _pairs(rng) + [(1000, 2), (1000, 3)]:  # with a long quotient by a short divisor
        if lb == 0:
            continue
        a = _run(rng, field, la, rng.choice((1.0, 0.3)))  # la = 0: a is zero; la < lb: a is r
        b = _run(rng, field, lb - 1, rng.choice((1.0, 0.3))) + [_unit(rng, field)]
        if lb > 1 and rng.random() < 0.5:
            b[0] = field.zero  # divisors with a zero constant term
        cases.append((a, b))
    cases += _sparse_quotients(rng, field)
    for a, b in cases:
        la, lb = len(a), len(b)
        q_ref, r_ref = schoolbook_divmod(a, b)
        ua, ub = (_run(rng, field, rng.choice((0, 1, lb, la + 1)), 0.5) for _ in "ab")
        r, u = _divide(field, a, b, ua, ub)
        assert r == r_ref, (la, lb)
        assert u == run_sub(ua, schoolbook_mul(q_ref, ub)), (la, lb)
        # a series division is exact when the runs from their lowest nonzero
        # coefficients divide, and then it is their quotient times X^(va - vb)
        (a_low, va), (b_low, vb) = _low_trimmed(a), _low_trimmed(b)
        if not a_low:
            continue
        sa = LaurentSeries.from_coeffs(field, va, a_low)
        sb = LaurentSeries.from_coeffs(field, vb, b_low)
        q_low, r_low = schoolbook_divmod(a_low, b_low)
        if r_low:
            with pytest.raises(ValueError):
                sa.divide(sb)
        else:
            assert sa.divide(sb) == LaurentSeries.from_coeffs(field, va - vb, q_low), (la, lb)
        if q_ref:  # and an exact quotient of nonzero q b by b
            product = LaurentSeries.from_coeffs(field, 0, schoolbook_mul(q_ref, b))
            assert product.divide(LaurentSeries.from_coeffs(field, 0, b)) == \
                LaurentSeries.from_coeffs(field, 0, q_ref), (la, lb)


def test_inverse_needs_a_unit_constant_term(f9):
    with pytest.raises(ZeroDivisionError):
        kronecker._inverse_cols(f9, pack(f9, [f9.zero, f9.one]), 8)
    with pytest.raises(ZeroDivisor):  # the empty run: a series zero to its precision
        LaurentSeries.constant(f9, 1).divide(LaurentSeries.zero(f9, 8))


def test_divmod_by_zero(f9):
    # the kernel reads a divisor's degree from its mask, so a run stored
    # with trailing zeros divides as the polynomial it holds; zero itself
    # is refused, and so is the zero polynomial by the remainder in helpers
    zero, one = f9.zero, f9.one
    for divisor in ([zero] * 2, []):
        with pytest.raises(ZeroDivisionError):
            _divide(f9, [one], divisor)
    with pytest.raises(ZeroDivisionError):
        poly_rem(LaurentSeries.constant(f9, 1), LaurentSeries.zero(f9))
    assert _divide(f9, [zero, one], [one, zero], [one], [one]) == ([], [one, -one])
    assert _divide(f9, [zero, zero, one], [one, one, zero, zero]) == ([one], [])


def test_euclid_reduces_within_its_budget(monkeypatch):
    # Over GF(3^5) a byte of a scaled divisor reaches 4k = 20, so the
    # dividend's bytes are reduced every 253 // 20 = 12 terms: a dense
    # quotient of 300 terms, every top nonzero, takes 25 reductions inside
    # its division and one at its end, and remainder and cofactor still
    # match long division
    field = FieldParams(5)
    rng = random.Random("budget")
    q = [_unit(rng, field) for _ in range(300)]
    b = _run(rng, field, 6) + [_unit(rng, field)]
    a = _with_remainder(field, schoolbook_mul(q, b), _run(rng, field, 6))
    ua, ub = _run(rng, field, 5), _run(rng, field, 4)
    calls = []
    reduced = kronecker._reduced
    monkeypatch.setattr(kronecker, "_reduced", lambda ints: calls.append(1) or reduced(ints))
    r, u = _divide(field, a, b, ua, ub)
    assert len(calls) == 300 // 12 + 1
    q_ref, r_ref = schoolbook_divmod(a, b)
    assert q_ref == q
    assert (r, u) == (r_ref, run_sub(ua, schoolbook_mul(q, ub)))


def _truncated_ring(k):
    """F3[t]/(t^k), made without FieldParams's irreducibility test. Its
    units are the elements with a nonzero constant digit, and the matrix of
    multiplication by 2 + 2t + ... + 2t^(k-1) has a last row of k 2s: on
    all-2 digits a byte of the image sums to 4k, the most any scaling makes."""
    ring = object.__new__(FieldParams)
    ring.degree, ring.modulus = k, (0,) * k + (1,)
    ring._high_powers = ((0,) * k,) * (k - 1)  # t^(k+i) = 0
    ring._inverses, ring._scale_matrices = {}, {}
    ring.zero = FieldElement._from_packed(ring, 0)
    return ring


@pytest.mark.parametrize("k", sorted(BOUNDARY_MODULI))
def test_euclid_keeps_bytes_below_256_in_large_degrees(k):
    # Below k = 64 a scaled divisor stays unreduced, a byte up to 4k, and
    # 253 // 4k = 1 reduces the dividend after every term; from k = 64 on
    # 4k passes 255, so the scaled divisors are reduced too. An all-1 top
    # over an all-2 divisor of lead 1 makes the quotient term the all-2
    # element, the worst case, and the field of the same degree adds a
    # dense modulus.
    ring = _truncated_ring(k)
    rng = random.Random(f"large:{k}")
    ones, twos = ring.element((1,) * k), ring.element((2,) * k)
    lead = ring.element((1,) + (0,) * (k - 1))
    cases = [([ones] * 24, [twos] * 3 + [lead]), ([ones, twos] * 12, [twos, lead])]
    for field in (ring, FieldParams(k, tuple(map(int, BOUNDARY_MODULI[k])))):
        unit = field.element([1] + [rng.randrange(3) for _ in range(k - 1)])
        cases.append((_run(rng, field, 30), _run(rng, field, 4) + [unit]))
    for a, b in cases:
        field = b[0].field
        ua, ub = _run(rng, field, 3), _run(rng, field, 5)
        q_ref, r_ref = schoolbook_divmod(a, b)
        assert _divide(field, a, b, ua, ub) == (r_ref, run_sub(ua, schoolbook_mul(q_ref, ub)))


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
    assert _mul(ring, a, b, 1) == [a[0] * b[0]]
