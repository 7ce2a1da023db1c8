"""Elliptic-curve group law over small GF(3^k): point arithmetic,
exhaustive enumeration, and pointwise identification of a rational map as
multiplication by a scalar.

Serves as an oracle independent of the series pipeline: whatever the
construction produces can be applied to every rational point and compared
against the chord-tangent group law directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import FieldTooLarge, PointNotOnCurve

ENUMERATION_MAX_ORDER = 3 ** 10


@dataclass(frozen=True)
class Point:
    """A point of the curve: affine (x, y) or the point at infinity."""

    x: object = None
    y: object = None

    @classmethod
    def infinity(cls):
        return cls(None, None)

    @property
    def is_infinity(self):
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


def on_curve(curve, point):
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    return y * y == (x * x + curve.A) * x + curve.B


def _require_on_curve(curve, point):
    if not on_curve(curve, point):
        raise PointNotOnCurve(f"{point!r} fails the curve equation")


def p_neg(curve, point):
    _require_on_curve(curve, point)
    if point.is_infinity:
        return point
    return Point(point.x, -point.y)


def p_double(curve, point):
    """Tangent doubling of a point checked to be on the curve."""
    _require_on_curve(curve, point)
    return _double(curve, point)


def p_add(curve, p, q):
    """Chord-tangent addition of points checked to be on the curve."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add(curve, p, q)


def _double(curve, point):
    """Tangent doubling; in characteristic three the slope is -A/y
    because the 3x^2 term of the derivative vanishes."""
    if point.is_infinity or point.y.is_zero:
        return Point.infinity()
    lam = -curve.A / point.y
    x3 = lam * lam + point.x  # lambda^2 - 2x = lambda^2 + x mod 3
    y3 = lam * (point.x - x3) - point.y
    return Point(x3, y3)


def _add(curve, p, q):
    """Chord-tangent addition of points the caller knows are on the curve."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return Point.infinity()
        return _double(curve, p)
    lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(x3, y3)


def enumerate_points(curve):
    """Every rational point: infinity first, then affine points in
    ascending (x, y) coefficient order.

    One table maps each square to its smaller root, built from q
    squarings in ascending order, so every x costs a lookup. The work
    grows with q, so the field's log tables are built first and every
    product and inverse on these points is a table lookup."""
    field = curve.field
    if field.order > ENUMERATION_MAX_ORDER:
        raise FieldTooLarge(
            f"field order {field.order} exceeds {ENUMERATION_MAX_ORDER}"
        )
    field.build_log_tables()
    roots = {}
    for y in field.elements():
        roots.setdefault(y * y, y)
    points = [Point.infinity()]
    for x in field.elements():
        root = roots.get((x * x + curve.A) * x + curve.B)
        if root is None:
            continue
        points.append(Point(x, root))
        if not root.is_zero:
            points.append(Point(x, -root))
    return points


def apply_map(curve, fx, fy_factor, point):
    """Apply (x, y) -> (fx(x), y * fy_factor(x)) to a point.

    A pole of either coordinate function marks a kernel point and maps to
    infinity; infinity maps to infinity. The caller decides whether the
    image has to lie on the curve.
    """
    if point.is_infinity:
        return point
    image_x = fx.eval(point.x)
    if image_x is None:
        return Point.infinity()
    factor = fy_factor.eval(point.x)
    if factor is None:
        return Point.infinity()
    return Point(image_x, point.y * factor)


def _map_points(fx, fy_factor, points):
    """apply_map on each point in enumeration order, where (x, y) and
    (x, -y) are adjacent and share x: fx and fy_factor are evaluated
    once per x."""
    x = factor = None
    for p in points:
        if p.is_infinity:
            yield p
            continue
        if p.x is not x:
            x = p.x
            image_x = fx.eval(x)
            factor = None if image_x is None else fy_factor.eval(x)
        yield Point.infinity() if factor is None else Point(image_x, p.y * factor)


@dataclass(frozen=True)
class MapCheckReport:
    """Pointwise diagnostics of a coordinate map over the rational points,
    with the points in enumeration order and the image of each."""

    all_on_curve: bool
    off_curve_points: tuple
    homomorphism_ok: bool
    pairs_checked: int
    points: tuple
    images: tuple


def check_map(curve, fx, fy_factor):
    """Verify a coordinate map pointwise over every rational point.

    Checks that each image lies on the curve and that the map commutes
    with addition; pairs are exhaustive for fields of at most 81 elements
    and 1000 seeded-random pairs above that. The points are enumerated,
    checked on the curve and mapped once: p + q is itself a rational
    point, so its image is read from the same table, and the sums go
    through the unchecked group law because every operand is a point or
    an image already checked.
    """
    points = tuple(enumerate_points(curve))
    for p in points:
        _require_on_curve(curve, p)
    images = tuple(_map_points(fx, fy_factor, points))
    off = tuple(p for p, image in zip(points, images) if not on_curve(curve, image))
    if off:
        return MapCheckReport(False, off, False, 0, points, images)
    if curve.field.order <= 81:
        pairs = [(p, q) for p in points for q in points]
    else:
        rng = random.Random(0)
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(1000)]
    image_of = dict(zip(points, images))
    hom_ok = True
    for p, q in pairs:
        lhs = image_of[_add(curve, p, q)]
        rhs = _add(curve, image_of[p], image_of[q])
        if lhs != rhs:
            hom_ok = False
            break
    return MapCheckReport(True, (), hom_ok, len(pairs), points, images)


def identify_scalar(curve, report, max_m):
    """Smallest m in [1, max_m] acting like the map of a check_map report
    on every rational point, or None. Meaningful once check_map has passed.

    N = #E(F_q) kills every rational point, so m and m - N act alike and
    the smallest match, if any, is at most N: the search stops there.
    The multiples go through the unchecked group law: every operand is an
    enumerated point check_map has checked, or a sum of such points."""
    points, images = report.points, report.images
    multiples = list(points)  # m = 1
    for m in range(1, min(max_m, len(points)) + 1):
        if m > 1:
            multiples = [_add(curve, acc, p) for acc, p in zip(multiples, points)]
        if all(img == acc for img, acc in zip(images, multiples)):
            return m
    return None
