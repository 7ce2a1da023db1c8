import functools
import itertools
import random

import pytest

from char3iso import (
    CurveParams,
    FieldParams,
    FieldTooLarge,
    MapCheckReport,
    MixedFields,
    PointNotOnCurve,
    check_map,
    derive_map_pair,
    parse_rational_function,
)
from helpers import (
    Point,
    addition_table,
    apply_map,
    enumerate_points,
    enumerate_points_by_scan,
    enumerate_points_by_sqrt,
    homomorphism_on_all_pairs,
    on_curve,
    p_add,
    p_double,
    p_neg,
    points_from_logs,
    random_rational,
    scalar_mul,
    span,
)


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


def test_public_group_law_checks_every_operand(e_f9, f9):
    bogus = Point(f9.zero, f9.one)
    good = enumerate_points(e_f9)[1]
    for p, q in [(good, bogus), (bogus, good), (bogus, bogus), (Point.infinity(), bogus)]:
        with pytest.raises(PointNotOnCurve):
            p_add(e_f9, p, q)


def test_check_map_checks_each_enumerated_point(e_f9, f9, monkeypatch):
    # check_map adds on logs with no further check, so a point off the
    # curve must be caught when it is enumerated: (0, 1) is (None, 0) in logs
    import char3iso.curve as curve

    enumerate_logs = curve._enumerate
    monkeypatch.setattr(curve, "_enumerate",
                        lambda logs, cubic: enumerate_logs(logs, cubic) + [(None, 0)])
    x = parse_rational_function("x", f9)
    with pytest.raises(PointNotOnCurve) as caught:
        check_map(e_f9, x, parse_rational_function("1", f9), 10)
    assert str(caught.value) == "Point(0, 1) fails the curve equation"


@pytest.mark.parametrize("degree", [1, 2])
def test_log_group_law_matches_the_reference_exhaustively(degree):
    # check_map adds on logs; on every curve with A in {1, 2} over GF(3)
    # and GF(9) that addition, and doubling as p + p, agree with p_add and
    # p_double on every pair of points
    import char3iso.curve as curve

    field = FieldParams(degree)
    for A, B in itertools.product((1, 2), field.elements()):
        e = CurveParams(field, A=A, B=B, c=1)
        logs, a, _ = curve._log_curve(e)
        points = enumerate_points(e)
        on_logs = _log_points(logs, points)
        for p, lp in zip(points, on_logs):
            (double,) = _log_points(logs, [p_double(e, p)])
            assert curve._add(logs, a, lp, lp) == double
            for q, lq in zip(points, on_logs):
                (total,) = _log_points(logs, [p_add(e, p, q)])
                assert curve._add(logs, a, lp, lq) == total


@pytest.mark.parametrize("degree", [5, 7])
def test_log_group_law_matches_the_reference_sampled(degree):
    # above GF(9) sums wrap mod n and zech indices go negative far more
    # often: on the first seeded curve with a rational 2-torsion point and
    # the first with a point at x = 0, 2,000 seeded pairs, p + p on every
    # 2-torsion point and on a sample, p + (-p), and the points at x = 0
    # added to a sample, both ways round, agree with p_add and p_double
    import char3iso.curve as curve

    rng = random.Random(3 ** degree)
    field = FieldParams(degree)
    elements = list(field.elements())
    for coordinate in ("y", "x"):
        while True:
            e = CurveParams(field, A=rng.choice(elements[1:]), B=rng.choice(elements), c=1)
            points = enumerate_points(e)
            if any(getattr(p, coordinate).is_zero for p in points[1:]):
                break
        logs, a, _ = curve._log_curve(e)
        on_logs = _log_points(logs, points)
        at = range(len(points))
        pairs = [(rng.choice(at), rng.choice(at)) for _ in range(2000)]
        pairs += [(i, i) for i in at[1:] if points[i].y.is_zero]
        pairs += [(i, i) for i in rng.sample(at, 50)]
        pairs += [(i, points.index(p_neg(e, points[i]))) for i in rng.sample(at, 50)]
        for i in (i for i in at[1:] if points[i].x.is_zero):
            pairs += [pair for j in rng.sample(at, 50) for pair in ((i, j), (j, i))]
        for i, j in pairs:
            p, q = points[i], points[j]
            (total,) = _log_points(logs, [p_double(e, p) if i == j else p_add(e, p, q)])
            assert curve._add(logs, a, on_logs[i], on_logs[j]) == total


@pytest.mark.parametrize("fx, fy", [("x", "1"), ("x^3", "x^3+x+2"), ("2", "1")])
def test_check_map_rejects_a_map_over_another_field(f9, fx, fy):
    curve = CurveParams(FieldParams(3), A=1, B=2, c=1)
    with pytest.raises(MixedFields):
        check_map(curve, parse_rational_function(fx, f9), parse_rational_function(fy, f9), 10)


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
    report = check_map(e_f9, fx, fy, 10)
    assert report.all_on_curve
    assert report.homomorphism_ok
    # the points form Z/4 x Z/4: the walk compares |<g1>| = 4 pairs for
    # the first generator and |<g1, g2>| = 16 for the second
    assert report.generators == (1, 3)
    assert report.pairs_checked == 4 + 16


def test_identify_identity(e_f9, f9):
    fx = parse_rational_function("x", f9)
    fy = parse_rational_function("1", f9)
    assert check_map(e_f9, fx, fy, 10).scalar == 1


def test_identify_degree_four_map_both_signs(e_f9, f9):
    # the rational points form a group of exponent four, so the map and
    # its negative act identically on them: both identify as 2
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    fx, fy = derive_map_pair(e_f9, eta)
    assert check_map(e_f9, fx, fy, 10).scalar == 2
    assert check_map(e_f9, fx, -fy, 10).scalar == 2


def test_x_shift_has_no_scalar(e_f3, f3):
    fx = parse_rational_function("x+1", f3)
    fy = parse_rational_function("1", f3)
    report = check_map(e_f3, fx, fy, 10)
    assert report.all_on_curve
    assert report.homomorphism_ok  # permutes the rational 2-torsion
    assert report.scalar is None


def test_zero_map_identifies_as_the_group_order(f3):
    # y^2 = x^3 + x over GF(3) is cyclic of order 4, generated by (2, 1);
    # poles at both affine abscissas send every point to infinity, which
    # only multiples of 4 = #E do: the last scalar the capped search tries
    curve = CurveParams(f3, A=1, B=0, c=1)
    fx = parse_rational_function("1/(x^2+x)", f3)
    fy = parse_rational_function("1", f3)
    report = check_map(curve, fx, fy, 10)
    assert report.point_count == 4
    assert report.all_on_curve and report.homomorphism_ok
    assert report.scalar == 4
    assert check_map(curve, fx, fy, 3).scalar is None


def _reference_scalar(e, fx, fy):
    # the smallest m >= 1 with [m]P = f(P) on every point, by p_add
    points = enumerate_points(e)
    images = [apply_map(e, fx, fy, p) for p in points]
    multiples = points
    for m in range(1, len(points) + 1):
        if multiples == images:
            return m
        multiples = [p_add(e, acc, p) for acc, p in zip(multiples, points)]
    return None


@pytest.mark.parametrize("degree", [1, 2])
def test_check_map_scalar_agrees_with_the_reference_group_law(degree):
    # on every curve with A != 0 over GF(3) and GF(9): the identity, negation,
    # and [2] and [-2], whose x-part is x + A^2/(x^3 + Ax + B) and whose
    # y-factors are fx'/2 = 2 fx' and fx'/(-2) = fx'
    field = FieldParams(degree)
    elements = list(field.elements())
    x, one = (parse_rational_function(text, field) for text in ("x", "1"))
    scalars = set()
    for A, B in itertools.product(elements[1:], elements):
        e = CurveParams(field, A=A, B=B, c=1)
        n = len(enumerate_points(e))
        double = x + A * A / (x * x * x + A * x + B)
        maps = [(x, one), (x, -one), (double, 2 * double.derivative()),
                (double, double.derivative())]
        for fx, fy in maps:
            expected = _reference_scalar(e, fx, fy)
            assert expected is not None
            assert check_map(e, fx, fy, n).scalar == expected
            scalars.add(expected)
    assert {1, 2} <= scalars and len(scalars) > 4


def _log_points(logs, points):
    # Points of FieldElements as logs, read through the log dict itself
    get = logs.log.get
    return [None if p.is_infinity else (get(p.x.packed), get(p.y.packed)) for p in points]


def _log_images(e, fx, fy):
    # the images check_map compares, evaluated on logs, with the field's
    # tables and the cubic they are checked against
    import char3iso.curve as curve

    logs, _, cubic = curve._log_curve(e)
    return logs, cubic, curve._map_points(logs, cubic, e, fx, fy, curve._enumerate(logs, cubic))


def test_check_map_images_match_apply_map(e_f9, f9):
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9)
    fx, fy = derive_map_pair(e_f9, eta)
    points = enumerate_points(e_f9)
    logs, _, images = _log_images(e_f9, fx, fy)
    assert points_from_logs(f9, logs, images) == tuple(apply_map(e_f9, fx, fy, p) for p in points)
    assert check_map(e_f9, fx, fy, 10).point_count == len(points)


def test_check_map_reports_an_off_curve_map_in_ints_and_bools(e_f9, f9):
    # x -> x + 1 takes x^3 + x + 2 to itself minus 1, so it sends each of
    # the 15 affine points of y^2 = x^3 + x + 2 over GF(9) off the curve;
    # the report says so with plain values and holds no point
    import char3iso.curve as curve

    fx, one = (parse_rational_function(text, f9) for text in ("x+1", "1"))
    points = enumerate_points(e_f9)
    off = [i for i, p in enumerate(points) if not on_curve(e_f9, apply_map(e_f9, fx, one, p))]
    logs, cubic, images = _log_images(e_f9, fx, one)
    assert curve._off_curve(logs, cubic, images) == off == list(range(1, 16))
    report = check_map(e_f9, fx, one, 10)
    assert report == MapCheckReport(False, False, 0, 16)
    for value in (getattr(report, name) for name in MapCheckReport.__slots__):
        assert value is None or type(value) in (int, bool) or (
            type(value) is tuple and all(type(i) is int for i in value)), value


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_check_map_images_match_apply_map_on_random_maps(degree):
    # the images check_map evaluates on logs, poles included, against
    # apply_map on FieldElements; fx vanishes at an enumerated x too, which
    # sends images to x = 0, the zero slot of the cubic's table
    import char3iso.curve as curve

    rng = random.Random(729 + degree)
    field = FieldParams(degree)
    elements = list(field.elements())
    x = parse_rational_function("x", field)
    poles = zeros = 0
    for _ in range(4):
        e = CurveParams(field, A=rng.choice(elements[1:]), B=rng.choice(elements), c=1)
        kernel_x, root_x = (rng.choice(enumerate_points(e)[1:]).x for _ in range(2))
        fx = (x - root_x) * random_rational(rng, field, 3) / (x - kernel_x)
        fy = random_rational(rng, field, 4) / random_rational(rng, field, 3)
        points = enumerate_points(e)
        logs, cubic, on_logs = _log_images(e, fx, fy)
        images = points_from_logs(field, logs, on_logs)
        assert images == tuple(apply_map(e, fx, fy, p) for p in points)
        poles += sum(image.is_infinity for image in images[1:])
        zeros += sum(not image.is_infinity and image.x.is_zero for image in images[1:])
        # the log check finds exactly the images the reference puts off the curve
        off = [i for i, image in enumerate(images) if not on_curve(e, image)]
        assert curve._off_curve(logs, cubic, on_logs) == off
        report = check_map(e, fx, fy, 10)
        assert report.point_count == len(points) and report.all_on_curve == (not off)
    assert poles and zeros


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
        for p in enumerate_points(curve):
            if not p.is_infinity and p != t:
                assert apply_map(curve, fx, fy, p) == p_add(curve, p, t)
        report = check_map(curve, fx, fy, 10)
        assert report.all_on_curve
        assert not report.homomorphism_ok
        assert report.scalar is None


def _log_addition_table(e, points):
    # the log group law, which test_log_group_law_matches_the_reference_exhaustively
    # pins to p_add; the reference itself is too slow for every pair of
    # every curve over GF(27)
    import char3iso.curve as curve

    logs, a, _ = curve._log_curve(e)
    return addition_table(functools.partial(curve._add, logs, a), _log_points(logs, points))


@pytest.mark.parametrize("B, pairs", [(1, 4 + 244), (2, 244)])
def test_check_map_walks_the_spans_of_greedy_generators(B, pairs):
    # over GF(3^5) each generator is the first point outside the span of
    # the earlier ones, and its walk compares as many pairs as the span it
    # completes has points; y^2 = x^3 + x + 2 is cyclic, so 244 in all
    field = FieldParams(5)
    e = CurveParams(field, A=1, B=B, c=1)
    x, one = (parse_rational_function(text, field) for text in ("x", "1"))
    report = check_map(e, x, one, 10)
    table = _log_addition_table(e, enumerate_points(e))
    assert report.homomorphism_ok and report.point_count == 244
    spans = [span(table, report.generators[:k]) for k in range(len(report.generators) + 1)]
    for g, before in zip(report.generators, spans):
        assert g == min(set(range(244)) - before)
    assert spans[-1] == set(range(244))
    assert report.pairs_checked == sum(map(len, spans[1:])) == pairs


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_check_map_agrees_with_all_pairs(degree):
    # on every curve: the identity, negation and the automorphisms
    # x -> x + r with r^2 = -A are homomorphisms; P -> P + T for a rational
    # 2-torsion point T, with infinity fixed, is one only on a group of two
    field = FieldParams(degree)
    elements = list(field.elements())
    x, one = (parse_rational_function(text, field) for text in ("x", "1"))
    verdicts = []
    for A, B in itertools.product(elements[1:], elements):
        e = CurveParams(field, A=A, B=B, c=1)
        points = enumerate_points(e)
        index = {p: i for i, p in enumerate(points)}
        table = _log_addition_table(e, points)
        maps = [(x, one), (x, -one)] + [(x + r, one) for r in elements if r and r * r == -A]
        for t in points[1:]:
            if t.y.is_zero:
                fx = (x * x * x + A * x + B) / ((x - t.x) * (x - t.x)) - x - t.x
                maps.append((fx, (t.x - fx) / (x - t.x)))
        for fx, fy in maps:
            report = check_map(e, fx, fy, 10)
            assert report.all_on_curve
            images = [index[apply_map(e, fx, fy, p)] for p in points]
            expected = homomorphism_on_all_pairs(table, images)
            assert report.homomorphism_ok == expected
            if expected:
                assert span(table, report.generators) == set(range(len(points)))
                assert report.pairs_checked < 2 * len(points)
            verdicts.append(expected)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_check_map_agrees_with_all_pairs_where_only_a_closing_step_fails(degree, monkeypatch):
    # images sent to random points on greedy generators and extended by
    # f(h + jg) = f(h) + j f(g) over each coset walk: every step that leaves
    # H holds by construction, so only a step back into H, x + rg with
    # rg in H but r f(g) != f(rg), can fail, and the test must take it
    import char3iso.curve as curve

    rng = random.Random(6561 + degree)
    field = FieldParams(degree)
    elements = list(field.elements())
    x, one = (parse_rational_function(text, field) for text in ("x", "1"))
    verdicts = []
    for A, B in itertools.product(elements[1:], elements):
        e = CurveParams(field, A=A, B=B, c=1)
        points = enumerate_points(e)
        table, n = _log_addition_table(e, points), len(points)
        generators = []
        for i in range(n):
            if i not in span(table, generators):
                generators.append(i)
        f = {0: 0}
        for g, target in zip(generators, rng.choices(range(n), k=len(generators))):
            for h in list(f):
                y, image = h, f[h]
                while table[y][g] not in f:
                    y, image = table[y][g], table[image][target]
                    f[y] = image
        images = [f[i] for i in range(n)]
        logs = _log_points(curve._Logs(field), points)
        monkeypatch.setattr(curve, "_map_points", lambda *args: [logs[i] for i in images])
        report = check_map(e, x, one, 10)
        assert report.homomorphism_ok == homomorphism_on_all_pairs(table, images)
        verdicts.append(report.homomorphism_ok)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("degree", [2, 5])
def test_doctored_image_off_the_generators_is_no_homomorphism(degree, monkeypatch):
    # images equal to [m]p for the doubling map's m on the generators, and
    # on every other point but one, which maps to another point of the
    # curve: the walk finds the pair, so no scalar is searched for
    import char3iso.curve as curve

    field = FieldParams(degree)
    e = CurveParams(field, A=1, B=2, c=1)
    fx, fy = derive_map_pair(e, parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", field))
    points = enumerate_points(e)
    report = check_map(e, fx, fy, len(points))
    assert report.homomorphism_ok and report.scalar
    doctored = max(set(range(1, len(points))) - set(report.generators))
    images = _log_points(curve._Logs(field), [apply_map(e, fx, fy, p) for p in points])
    images[doctored] = next(p for p in images if p != images[doctored])
    monkeypatch.setattr(curve, "_map_points", lambda *args: images)
    bad = check_map(e, fx, fy, len(points))
    assert bad.point_count == len(points)
    assert bad.all_on_curve and not bad.homomorphism_ok and bad.generators == ()
    assert bad.scalar is None


def test_check_map_unpacks_each_polynomial_once(monkeypatch):
    # check_map converts each polynomial's packed run to logs once, so the
    # doubling map at GF(3^5) unpacks its two numerators once however many
    # points it maps; its denominators, the cubic and its square, are read
    # from the cubic's table and never unpacked; once the field's tables
    # exist, it makes no FieldElement, neither for the map nor for a point
    import char3iso.curve as curve
    from char3iso import FieldElement, gf3field, kronecker

    field = FieldParams(5)
    e = CurveParams(field, A=1, B=2, c=1)
    fx = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", field)
    fy = parse_rational_function(
        "(2*x^6+x^4+2*x^3+2*x^2+2*x)/(x^6+2*x^4+x^3+x^2+x+1)", field)
    curve._Logs(field)
    unpacked, made = [], []
    packed, new, init = kronecker._packed, gf3field._new_element, FieldElement.__init__
    monkeypatch.setattr(kronecker, "_packed", lambda cols: unpacked.append(cols) or packed(cols))
    monkeypatch.setattr(gf3field, "_new_element", lambda cls: made.append(cls) or new(cls))
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    report = check_map(e, fx, fy, 10)
    assert report.all_on_curve and report.point_count == 244
    assert unpacked == [fx.num.cols, fy.num.cols]
    assert made == []


def test_check_map_evaluates_the_cubic_once_per_field_element(monkeypatch):
    # the doubling map at GF(3^5): x^3 + A x + B is evaluated once at each
    # of the 243 field elements, and enumeration and both curve checks read
    # that table, where a check per point and per image evaluated it about
    # 730 times; the map's denominators, the cubic f and f^2, are read from
    # that table as 1 and 2 times its log, and only the two numerators are
    # evaluated, each once over the distinct x's
    import char3iso.curve as curve
    from char3iso.ratrec import coefficients

    field = FieldParams(5)
    e = CurveParams(field, A=1, B=2, c=1)
    fx, fy = derive_map_pair(e, parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", field))
    logs = curve._Logs(field)
    cubic = (0, None, logs.log[e.A.packed], logs.log[e.B.packed])
    distinct = len({p.x for p in enumerate_points(e)[1:]})
    polys = [tuple(logs.log.get(c.packed) for c in reversed(coefficients(p)))
             for p in (fx.num, fy.num)]
    evaluated, evaluate = [], curve._evaluate
    monkeypatch.setattr(curve, "_evaluate", lambda logs, coeffs, xs: evaluated.append(
        (tuple(coeffs), len(xs))) or evaluate(logs, coeffs, xs))
    report = check_map(e, fx, fy, 10)
    assert report.homomorphism_ok and report.point_count == 244
    assert evaluated == [(cubic, 243)] + [(p, distinct) for p in polys]


def test_enumeration_cap():
    big = FieldParams(11, (2, 0, 1) + (0,) * 8 + (1,))  # t^11 + t^2 + 2
    curve = CurveParams(big, A=1, B=1, c=1)
    with pytest.raises(FieldTooLarge):
        enumerate_points(curve)


def test_reconstructed_solutions_map_points_onto_curve(f3, f9):
    # whenever a constructed solution admits a rational form, applying it
    # to every rational point must land back on the curve
    import random

    from char3iso import IncompatibleSeed, LaurentSeries, RationalFunction, Seed
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
            LaurentSeries.from_coeffs(field, 0, coeffs)))
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
