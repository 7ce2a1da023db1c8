import itertools
import random

import pytest

from char3iso import (
    CurveParams,
    FieldParams,
    FieldTooLarge,
    PointNotOnCurve,
    check_map,
    derive_map_pair,
    identify_scalar,
    parse_rational_function,
)
from char3iso.curve import (
    Point,
    apply_map,
    enumerate_points,
    on_curve,
    p_add,
    p_double,
    p_neg,
)

from helpers import enumerate_points_by_scan, enumerate_points_by_sqrt, scalar_mul


@pytest.fixture(scope="module")
def e_f3(f3):
    # y^2 = x^3 - x: the three 2-torsion abscissas plus infinity
    return CurveParams(f3, A=-1, B=0, c=1)


@pytest.fixture(scope="module")
def e_f9(f9):
    return CurveParams(f9, A=1, B=2, c=1)


def test_enumeration_f3(e_f3, f3):
    pts = enumerate_points(e_f3)
    assert pts[0].is_infinity
    affine = {(p.x.coeffs[0], p.y.coeffs[0]) for p in pts[1:]}
    assert affine == {(0, 0), (1, 0), (2, 0)}


def test_enumeration_f9_pinned_count(e_f9):
    # order recorded once from brute force
    assert len(enumerate_points(e_f9)) == 16


@pytest.mark.parametrize("degree", range(1, 7))
def test_enumeration_matches_sqrt_and_scan(degree):
    rng = random.Random(2401 + degree)
    field = FieldParams(degree)
    elements = list(field.elements())
    for _ in range(2):
        curve = CurveParams(field, A=rng.choice(elements[1:]),
                            B=rng.choice(elements), c=1)
        points = enumerate_points(curve)
        assert points == enumerate_points_by_sqrt(curve)
        assert points == enumerate_points_by_scan(curve)


def test_enumeration_deterministic(e_f9):
    assert enumerate_points(e_f9) == enumerate_points(e_f9)


def test_all_enumerated_points_on_curve(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        for p in enumerate_points(curve):
            assert on_curve(curve, p)


def test_off_curve_point_rejected(e_f9, f9):
    bogus = Point(f9.zero, f9.one)
    assert not on_curve(e_f9, bogus)
    with pytest.raises(PointNotOnCurve):
        p_double(e_f9, bogus)
    with pytest.raises(PointNotOnCurve):
        p_add(e_f9, bogus, Point.infinity())


def test_identity_and_inverse(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        for p in enumerate_points(curve):
            assert p_add(curve, p, Point.infinity()) == p
            assert p_add(curve, p, p_neg(curve, p)).is_infinity


def test_commutativity_exhaustive(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        pts = enumerate_points(curve)
        for p, q in itertools.product(pts, repeat=2):
            assert p_add(curve, p, q) == p_add(curve, q, p)


def test_associativity_exhaustive(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        pts = enumerate_points(curve)
        for p, q, r in itertools.product(pts, repeat=3):
            lhs = p_add(curve, p_add(curve, p, q), r)
            rhs = p_add(curve, p, p_add(curve, q, r))
            assert lhs == rhs


def test_closure(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        pts = enumerate_points(curve)
        for p, q in itertools.product(pts, repeat=2):
            assert on_curve(curve, p_add(curve, p, q))


def test_doubling_slope_matches_generic_formula(e_f9, f9):
    # the generic chord-tangent slope (3x^2 + A) / (2y) evaluated literally
    # in characteristic three, against the shortcut -A/y
    three = f9.from_int(3)
    two = f9.from_int(2)
    for p in enumerate_points(e_f9):
        if p.is_infinity or p.y.is_zero:
            continue
        lam = (three * p.x * p.x + e_f9.A) / (two * p.y)
        x3 = lam * lam - p.x - p.x
        y3 = lam * (p.x - x3) - p.y
        assert p_double(e_f9, p) == Point(x3, y3)


def test_two_torsion_doubles_to_infinity(e_f3):
    for p in enumerate_points(e_f3):
        if not p.is_infinity and p.y.is_zero:
            assert p_double(e_f3, p).is_infinity


def test_doubling_against_distinct_addition_oracle(e_f9):
    # 2P = (P+R) + (P-R) uses only distinct-point chords when neither P
    # nor R is 2-torsion and R != +-P, so it checks the tangent formula
    # through code paths that never invoke it
    pts = [p for p in enumerate_points(e_f9)
           if not p.is_infinity and not p.y.is_zero]
    checked = 0
    for p in pts:
        for r in pts:
            if r == p or r == p_neg(e_f9, p):
                continue
            plus = p_add(e_f9, p, r)
            minus = p_add(e_f9, p, p_neg(e_f9, r))
            assert p_add(e_f9, plus, minus) == p_double(e_f9, p)
            checked += 1
            break
    assert checked == len(pts)


def test_scalar_mul_basics(e_f9):
    pts = enumerate_points(e_f9)
    for p in pts:
        assert scalar_mul(e_f9, 1, p) == p
        assert scalar_mul(e_f9, 0, p).is_infinity
        assert scalar_mul(e_f9, 2, p) == p_double(e_f9, p)
        assert scalar_mul(e_f9, -1, p) == p_neg(e_f9, p)


def test_lagrange_order_annihilates(e_f3, e_f9):
    for curve in (e_f3, e_f9):
        pts = enumerate_points(curve)
        n = len(pts)
        for p in pts:
            assert scalar_mul(curve, n, p).is_infinity


def test_apply_identity_map(e_f9, f9):
    fx = parse_rational_function("x", f9)
    fy = parse_rational_function("1", f9)
    for p in enumerate_points(e_f9):
        assert apply_map(e_f9, fx, fy, p) == p


def test_apply_inverse_x_map(e_f3, f3):
    fx = parse_rational_function("-1/x", f3)
    fy = parse_rational_function("1/x^2", f3)
    one_zero = Point(f3.one, f3.zero)
    image = apply_map(e_f3, fx, fy, one_zero)
    assert image == Point(f3.from_int(2), f3.zero)
    assert on_curve(e_f3, image)
    # the pole at x = 0 sends the kernel point to infinity
    assert apply_map(e_f3, fx, fy, Point(f3.zero, f3.zero)).is_infinity


def test_degree_four_map_lands_on_curve(e_f9, f9):
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    fx, fy = derive_map_pair(e_f9, eta)
    report = check_map(e_f9, fx, fy)
    assert report.all_on_curve
    assert report.homomorphism_ok
    assert report.pairs_checked == 16 * 16


def test_identify_identity(e_f9, f9):
    fx = parse_rational_function("x", f9)
    fy = parse_rational_function("1", f9)
    assert identify_scalar(e_f9, check_map(e_f9, fx, fy), 10) == 1


def test_identify_degree_four_map_both_signs(e_f9, f9):
    # the rational points form a group of exponent four, so the map and
    # its negative act identically on them: both identify as 2
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    fx, fy = derive_map_pair(e_f9, eta)
    assert identify_scalar(e_f9, check_map(e_f9, fx, fy), 10) == 2
    assert identify_scalar(e_f9, check_map(e_f9, fx, -fy), 10) == 2


def test_x_shift_has_no_scalar(e_f3, f3):
    fx = parse_rational_function("x+1", f3)
    fy = parse_rational_function("1", f3)
    report = check_map(e_f3, fx, fy)
    assert report.all_on_curve
    assert report.homomorphism_ok  # permutes the rational 2-torsion
    assert identify_scalar(e_f3, report, 10) is None


def test_zero_map_identifies_as_the_group_order(f3):
    # y^2 = x^3 + x over GF(3) is cyclic of order 4, generated by (2, 1);
    # poles at both affine abscissas send every point to infinity, which
    # only multiples of 4 = #E do: the last scalar the capped search tries
    curve = CurveParams(f3, A=1, B=0, c=1)
    fx = parse_rational_function("1/(x^2+x)", f3)
    fy = parse_rational_function("1", f3)
    report = check_map(curve, fx, fy)
    assert len(report.points) == 4
    assert report.all_on_curve and report.homomorphism_ok
    assert identify_scalar(curve, report, 10) == 4
    assert identify_scalar(curve, report, 3) is None


def test_check_map_report_carries_points_and_images(e_f9, f9):
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    fx, fy = derive_map_pair(e_f9, eta)
    report = check_map(e_f9, fx, fy)
    assert report.points == tuple(enumerate_points(e_f9))
    assert report.images == tuple(apply_map(e_f9, fx, fy, p) for p in report.points)


@pytest.mark.parametrize("A", [1, 2])
def test_translation_by_two_torsion_is_no_homomorphism(f3, A):
    # P -> P + T for a rational 2-torsion point T = (x0, 0): the chord
    # through T and P gives fx = (x^3+Ax+B)/(x-x0)^2 - x - x0 and
    # y * (x0 - fx)/(x - x0). The images lie on the curve, but
    # (P+Q) + T differs from (P+T) + (Q+T) = P + Q, so the check has to
    # find a pair whose sum's image disagrees.
    curve = CurveParams(f3, A=A, B=0, c=1)
    x = parse_rational_function("x", f3)
    torsion = [p for p in enumerate_points(curve) if not p.is_infinity and p.y.is_zero]
    assert len(torsion) == (1 if A == 1 else 3)
    for t in torsion:
        fx = (x * x * x + curve.A * x + curve.B) / ((x - t.x) * (x - t.x)) - x - t.x
        fy = (t.x - fx) / (x - t.x)
        report = check_map(curve, fx, fy)
        for p, image in zip(report.points, report.images):
            if not p.is_infinity and p != t:
                assert image == p_add(curve, p, t)
        assert report.all_on_curve
        assert not report.homomorphism_ok
        assert identify_scalar(curve, report, 10) is None


def test_check_map_samples_pairs_on_large_field():
    # fields beyond 81 elements switch from exhaustive pairs to 1000
    # seeded-random pairs
    field = FieldParams(5)
    curve = CurveParams(field, A=1, B=1, c=1)
    fx = parse_rational_function("x", field)
    fy = parse_rational_function("1", field)
    report = check_map(curve, fx, fy)
    assert report.all_on_curve
    assert report.homomorphism_ok
    assert report.pairs_checked == 1000


def test_enumeration_cap():
    big = FieldParams(11, (2, 0, 1) + (0,) * 8 + (1,))  # t^11 + t^2 + 2
    curve = CurveParams(big, A=1, B=1, c=1)
    with pytest.raises(FieldTooLarge):
        enumerate_points(curve)


def test_reconstructed_solutions_map_points_onto_curve(f3, f9):
    # whenever a constructed solution admits a rational form, applying it
    # to every rational point must land back on the curve
    import random

    from char3iso import IncompatibleSeed, RationalFunction, Seed
    from char3iso.ratrec import Polynomial
    from char3iso import construct, pade

    rng = random.Random(91125)
    reconstructed = 0
    for _ in range(60):
        field = f9 if rng.random() < 0.5 else f3
        nonzero = [e for e in field.elements() if not e.is_zero]
        curve = CurveParams(field, A=rng.choice(nonzero),
                            B=rng.choice(list(field.elements())),
                            c=rng.choice(nonzero))
        coeffs = [0, rng.randrange(3), 0, 0, rng.randrange(3)]
        seed = Seed.alpha(RationalFunction.from_polynomial(
            Polynomial(field, coeffs)))
        try:
            sols = construct(curve, seed, 24)
        except IncompatibleSeed:
            continue
        points = enumerate_points(curve)
        for sol in sols:
            rat = pade(sol.eta, 6, 6)
            if rat is None:
                continue
            reconstructed += 1
            fx, fy = derive_map_pair(curve, rat)
            for p in points:
                assert on_curve(curve, apply_map(curve, fx, fy, p))
    assert reconstructed > 0
