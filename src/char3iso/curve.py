"""Elliptic-curve group law over small GF(3^k): exhaustive enumeration
and a pointwise check of a rational map that also identifies it as
multiplication by a scalar.

Serves as an oracle independent of the series pipeline: whatever the
construction produces can be applied to every rational point and compared
against the chord-tangent group law directly.

Enumeration and check_map, whose work grows with q, run the group law on
Zech's logarithms (Huber, IEEE Trans. IT 36, 1990): an element is the int
i with element = g^i, None for zero, and a point a pair of them, None for
infinity. The field operations are int arithmetic on the tables of
_Logs, written out in _evaluate and _add with no call per operation.
x^3 + A x + B is evaluated once at every field element; enumeration,
both curve checks and a map polynomial that is a power of the cubic read
that table, and the map's other polynomials are read from their packed
runs, so once the tables exist check_map makes no FieldElement. The
chord-tangent law on points of FieldElements, which the tests compare this
one against, lives in tests/helpers.py.
"""

from __future__ import annotations

import functools
import itertools

from . import kronecker
from .errors import FieldTooLarge, MixedFields, PointNotOnCurve
from .ratrec import _power, degree
from .record import Record
from .series import INF, LaurentSeries

ENUMERATION_MAX_ORDER = 3 ** 10


class MapCheckReport(Record):
    """Pointwise diagnostics of a coordinate map over the rational points:
    whether every image is on the curve, the homomorphism test, and for a
    homomorphism the generators (indices in enumeration order, empty
    unless the test passed) and the scalar it was identified as."""

    __slots__ = ("all_on_curve", "homomorphism_ok", "pairs_checked", "point_count",
                 "generators", "scalar")
    _defaults = {"generators": (), "scalar": None}


def check_map(curve, fx, fy_factor, max_scalar):
    """Verify a coordinate map f over every rational point, exactly, and
    identify it as a multiplication map. Each image must lie on the curve,
    and f must commute with addition: for each generator g, taken greedily
    in enumeration order, the walk goes through the cosets H, H + g,
    H + 2g, ... of the span H of the earlier ones back into H, checking
    f(x + g) = f(x) + f(g) at each step; by induction that covers every
    pair of E(F_q) ~ Z/n1 x Z/n2 (Washington, Thm 4.1) in fewer than 2 #E
    pairs, #E if it is cyclic. On logs, the image of x + g is read by its
    index, and no sum is checked again: every operand was checked.

    A homomorphism is [m] iff it is [m] on the generators, so the scalar
    is the smallest m in [1, max_scalar] with [m]g = f(g) on each of them,
    or None. N = #E kills every point, so the search stops at N: at most
    |generators| * min(max_scalar, N) additions."""
    field = curve.field
    if not fx.field == fy_factor.field == field:
        raise MixedFields("the map and the curve are over different fields")
    logs, a, cubic = _log_curve(curve)
    points = _enumerate(logs, cubic)
    bad = _off_curve(logs, cubic, points)
    if bad:
        x, y = (field._names[0 if i is None else logs.exp[i]] for i in points[bad[0]])
        raise PointNotOnCurve(f"Point({x}, {y}) fails the curve equation")
    images = _map_points(logs, cubic, curve, fx, fy_factor, points)
    if _off_curve(logs, cubic, images):
        return MapCheckReport(False, False, 0, len(points))
    index = {p: i for i, p in enumerate(points)}
    span, generators, pairs = {0: None}, [], 0  # a dict keeps the walk's order
    for g in range(1, len(points)):
        if g in span:
            continue
        generators.append(g)
        for x in list(span):  # x, x + g, x + 2g, ... is back in H only at x + rg
            while True:
                pairs += 1
                s = index[_add(logs, a, points[x], points[g])]
                if images[s] != _add(logs, a, images[x], images[g]):
                    return MapCheckReport(True, False, pairs, len(points))
                if s in span:
                    break
                span[s] = None
                x = s
    gens, targets = ([run[g] for g in generators] for run in (points, images))
    multiples, scalar = gens, None
    for m in range(1, min(max_scalar, len(points)) + 1):
        if multiples == targets:
            scalar = m
            break
        multiples = [_add(logs, a, acc, g) for acc, g in zip(multiples, gens)]
    return MapCheckReport(True, True, pairs, len(points), tuple(generators), scalar)


# ---- the group law on logs ---------------------------------------------------

@functools.lru_cache(maxsize=1)  # the tables of one field at a time
class _Logs:
    """Zech's logarithm tables of a field on packed ints; the arithmetic is
    written out where it runs. With g the first primitive element in
    field.elements() order and n = q - 1, exp[i] = g^i, log maps each
    nonzero element back, and zech[d] = log(1 + g^d), None where
    1 + g^d = 0. Zero is None. For a = g^i and b = g^j, exponents mod n:

        a * b = g^(i + j)      a + b = g^(i + zech[j - i])      -a = g^(i + n/2)

    Every log is reduced into [0, n) before it indexes zech, so j - i lies
    in (-n, n) and a negative index wraps around zech to j - i + n. xs
    lists each element's log in field.elements() order.
    """

    def __init__(self, field):
        n, k = field.order - 1, field.degree
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        g = next(g for g in field.elements() if g and all(g ** (n // p) != 1 for p in primes))
        # the run 1, g, ..., g^(m-1) doubles to 2m terms as run + g^m X^m run
        run, gm, m = LaurentSeries.constant(field, 1), g, 1
        while m < n:
            run, gm, m = run + (run * gm).shift(m), gm * gm, 2 * m
        self.exp = list(kronecker._packed(run.truncate(n).cols))
        self.n, self.log = n, {packed: i for i, packed in enumerate(self.exp)}
        # 1 + a adds 1 to the t^0 digit of a, its low byte
        self.zech = [self.log.get(p - 2 if p & 255 == 2 else p + 1) for p in self.exp]
        digits = map(bytes, itertools.product(range(3), repeat=k))  # field.elements() order
        self.xs = list(map(self.log.get, map(int.from_bytes, digits, itertools.repeat("little"))))
        # a root comes before its negative in field.elements() order iff its
        # lowest nonzero digit is 1, the low bit of that digit's byte
        self.low_bits = int.from_bytes(b"\1" * k, "little")


def _log_curve(curve):
    """The field's tables, the log of A, and the cubic: x^3 + A x + B at
    every field element, a dict from the log of x (None for zero) in
    field.elements() order."""
    if curve.field.order > ENUMERATION_MAX_ORDER:
        raise FieldTooLarge(f"field order {curve.field.order} exceeds {ENUMERATION_MAX_ORDER}")
    logs = _Logs(curve.field)
    a = logs.log[curve.A.packed]
    values = _evaluate(logs, (0, None, a, logs.log.get(curve.B.packed)), logs.xs)
    return logs, a, dict(zip(logs.xs, values))


def _evaluate(logs, coeffs, xs):
    """The polynomial with these coefficients, highest degree first, at
    each x of xs: acc * x + c for every x at once, one pass a coefficient.
    Where acc or x is zero that is c, so a zero x gives the constant term."""
    n, zech, accs = logs.n, logs.zech, [coeffs[0] if coeffs else None] * len(xs)
    for c in coeffs[1:]:
        if c is None:
            accs = [None if acc is None or x is None else (acc + x) % n for acc, x in zip(accs, xs)]
        else:
            accs = [c if acc is None or x is None else
                    None if (z := zech[c - (t := (acc + x) % n)]) is None else (t + z) % n
                    for acc, x in zip(accs, xs)]
    return accs


def _off_curve(logs, cubic, points):
    """The indices of the points off the curve: y^2 = x^3 + A x + B is
    2 log y against the cubic's table at x, and infinity is on it."""
    n = logs.n
    return [i for i, p in enumerate(points) if p is not None
            and (None if p[1] is None else 2 * p[1] % n) != cubic[p[0]]]


def _enumerate(logs, cubic):
    """The rational points: infinity first, then affine points with x in
    field.elements() order and, for each x, the root that comes first in
    that order before its negative. x^3 + A x + B = g^l is a square iff l
    is even, with the roots g^(l/2) and its negative."""
    n, exp, low_bits, points = logs.n, logs.exp, logs.low_bits, [None]
    h = n >> 1  # -1 = g^h, and l/2 < h
    for x, rhs in cubic.items():
        if rhs is None:
            points.append((x, None))
        elif not rhs & 1:
            y = rhs >> 1
            if not exp[y] & -exp[y] & low_bits:
                y += h
            points += [(x, y), (x, (y + h) % n)]
    return points


def _add(logs, a, p, q):
    """Chord-tangent addition, doubling included: the slope is the chord's,
    or -A/y for the tangent (the 3x^2 of the derivative vanishes in
    characteristic three), and x3 = lambda^2 - x1 - x2 either way. Each
    sum of two nonzero elements is i + zech[j - i] and each negation
    i + n/2, on logs reduced into [0, n), with no call per operation."""
    if p is None or q is None:
        return q if p is None else p
    (x1, y1), (x2, y2) = p, q
    n, zech = logs.n, logs.zech
    h = n >> 1
    ny1 = None if y1 is None else (y1 + h) % n
    if x1 != x2:  # lam = (y2 - y1) / (x2 - x1), and x2 - x1 is not zero
        if x1 is None or x2 is None:
            dx = x2 if x1 is None else (x1 + h) % n
        else:
            dx = x2 + zech[(x1 + h) % n - x2]
        if y1 is None or y2 is None:
            dy = y2 if y1 is None else ny1
        else:
            z = zech[ny1 - y2]
            dy = None if z is None else y2 + z
        lam = None if dy is None else (dy - dx) % n
    elif y2 == ny1:  # q = -p, or p = q of order 2
        return None
    else:
        lam = (a + h - y1) % n
    # s = -(x1 + x2), so x3 = lam^2 + s
    if x1 is None or x2 is None:
        s = None if x1 is x2 else ((x2 if x1 is None else x1) + h) % n
    else:
        z = zech[x2 - x1]
        s = None if z is None else (x1 + z + h) % n
    if lam is None:  # a horizontal chord: y3 = -y1
        return s, ny1
    x3 = 2 * lam % n
    if s is not None:
        z = zech[s - x3]
        x3 = None if z is None else (x3 + z) % n
    # y3 = lam (x1 - x3) - y1
    if x3 is None or x1 is None:
        d = x1 if x3 is None else (x3 + h) % n
    else:
        z = zech[(x3 + h) % n - x1]
        d = None if z is None else x1 + z
    if d is None:
        return x3, ny1
    t = (lam + d) % n
    if ny1 is None:
        return x3, t
    z = zech[ny1 - t]
    return x3, None if z is None else (t + z) % n


def _map_points(logs, cubic, curve, fx, fy_factor, points):
    """The image of each point of _enumerate, a pole mapping to infinity.
    A polynomial that is a power f^e of the curve's cubic f, as the
    doubling map's denominators are, is read from the cubic's table as e
    times its log; any other has its packed run go to logs once, its p.val
    low zeros None, and is evaluated once over the distinct x's of the
    points."""
    xs, log, n = list(dict.fromkeys(p[0] for p in points[1:])), logs.log.get, logs.n
    field = curve.field
    f = LaurentSeries(field, 0, (curve.B, curve.A, field.zero, field.one), INF)
    columns = []
    for p in (fx.num, fx.den, fy_factor.num, fy_factor.den):
        e, r = divmod(degree(p), 3)
        if e > 0 and not r and p == _power(f, e):
            columns.append([None if cubic[x] is None else e * cubic[x] % n for x in xs])
        else:
            run = [*map(log, reversed(kronecker._packed(p.cols))), *[None] * (p.val or 0)]
            columns.append(_evaluate(logs, run, xs))
    values, images = dict(zip(xs, zip(*columns))), [None]
    for x, y in points[1:]:
        x_num, x_den, y_num, y_den = values[x]
        images.append(None if x_den is None or y_den is None else (
            None if x_num is None else (x_num - x_den) % n,
            None if y is None or y_num is None else (y + y_num - y_den) % n))
    return images
