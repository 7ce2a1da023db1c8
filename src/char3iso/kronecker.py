"""Products (by Kronecker substitution), cubes, power-series inverses and
the Euclid of dense coefficient runs over GF(3^k).

A run is k columns of bytes, lowest degree first: column j holds the t^j
digit of every coefficient. A product packs each run into one Python int:
the t^j digit of the x^i coefficient goes to slot i*(2k-1) + j, and every
slot is wide enough (4*n*k fits in it, n the shorter run) that no slot of
the integer product carries into the next. CPython's big-int product
(Karatsuba) then does the whole convolution. Since 256 = 1 (mod 3), a
slot's value mod 3 is the sum of its bytes mod 3, so unpacking is bytes
slicing and translation; the slots for t^k .. t^(2k-2) are folded back with
the field's table of high powers of t. The cube (the Frobenius) and a
scaling by a constant are F3-linear maps of the digit columns, by a matrix.

An inverse whose divisor is a series in X^3 (as gamma and c^2 (X^3 + B)
are) is that of the decimated run, spread back to every third index:
1/b(X^3) = (1/b)(X^3), so a divisor in X^9 recurses. Any other takes
1/b = b^2 (1/b)^3 of characteristic 3: one squaring of b, then one product
per tripling of the precision from the packed inverse of the constant
term, cubed as one packed image, so the kernel makes no FieldElement. A
series quotient is a product with an inverse. The Euclid of pade and
poly_gcd (_euclid) divides from the top keeping no quotient, on runs held
as column ints whose bytes are reduced mod 3 lazily: the divisor's run,
scaled once for each quotient coefficient a division meets and left
unreduced, is added shifted for each nonzero quotient term, one shift-add
per column, and a run may carry its cofactor above the remainder, updated
by the same addition.
LaurentSeries keeps its run in column form, and so does a polynomial, an
exact series; both call the column functions directly, and there is no
entry point on element runs. _columns builds a run from packed ints;
_packed and _elements read it back as packed ints or elements.
"""

from __future__ import annotations

import struct
from operator import mul

from .gf3field import _MOD3, FieldElement, _inverse_packed, _reduce

_NEG = bytes((-v) % 3 for v in range(256))


# ---- columns -----------------------------------------------------------

def _columns(run, k):
    """The k columns of a run of packed coefficients."""
    if k <= 8:  # one little-endian 8-byte word per coefficient: struct writes them all
        raw = struct.pack(f"<{len(run)}Q", *run)
        return [raw[j::8] for j in range(k)]
    digits = b"".join([c.to_bytes(k, "little") for c in run])
    return [digits[j::k] for j in range(k)]


def _packed(cols):
    k, n = len(cols), len(cols[0])
    if k <= 8:  # one little-endian 8-byte word per coefficient: struct reads them all
        return struct.unpack(f"<{n}Q", _interleave(cols, 8, 1))
    digits = _interleave(cols, k, 1)
    return [int.from_bytes(digits[i:i + k], "little") for i in range(0, n * k, k)]


def _elements(field, cols):
    return list(map(FieldElement._from_packed, [field] * len(cols[0]), _packed(cols)))


def _interleave(cols, stride, width):
    """The digit of column j, coefficient i, at byte (i*stride + j)*width."""
    step = stride * width
    buf = bytearray(len(cols[0]) * step)
    for j, col in enumerate(cols):
        buf[j * width::step] = col
    return buf


def _mul_cols(field, a, b, n):
    """Columns of the first n coefficients of a*b (both nonempty), zero-padded to n."""
    k = field.degree
    la, lb = len(a[0]), len(b[0])
    stride = 2 * k - 1
    width = ((4 * min(la, lb) * k).bit_length() + 7) // 8
    pa = int.from_bytes(_interleave(a, stride, width), "little")
    product = pa * pa if b is a else pa * int.from_bytes(_interleave(b, stride, width), "little")
    size = n * stride * width
    raw = product.to_bytes(max(size, (la + lb - 1) * stride * width), "little")[:size]
    if width > 1:
        raw = raw.translate(_MOD3)
        total = sum(int.from_bytes(raw[i::width], "little") for i in range(width))
        raw = total.to_bytes(n * stride, "little")
    digits = raw.translate(_MOD3)
    if k == 1:
        return [digits]
    top = [int.from_bytes(digits[k + i::stride], "little") for i in range(k - 1)]
    out = []
    for j in range(k):
        acc = int.from_bytes(digits[j::stride], "little")
        for i, t in enumerate(top):
            acc += field._high_powers[i][j] * t
            if i % 60 == 59:  # 2 + 60 terms of at most 4 stay below 256
                acc = int.from_bytes(acc.to_bytes(n, "little").translate(_MOD3), "little")
        out.append(acc.to_bytes(n, "little").translate(_MOD3))
    return out


def _inverse_cols(field, b, n):
    """Columns of the first n coefficients of 1/b. A divisor whose nonzero
    coefficients all sit at indices = 0 (mod 3) is b0(X^3), and 1/b0(X^3) =
    (1/b0)(X^3): b0 is inverted to ceil(n/3) coefficients, so a divisor in
    X^9 recurses, and spread to every third index. Any other divisor takes
    the Frobenius: 1/b = b^2 (1/b)^3, and 1/b known to ceil(m/3)
    coefficients has its cube exact to m, so each level is one product of
    b^2 with a cube, the first with g0^3 for g0 the packed inverse of the
    constant term, cubed as one packed image."""
    if n > 1 and _in_class(b, 0):
        return _spread(_inverse_cols(field, [c[::3] for c in b], (n + 2) // 3), n)
    lead = int.from_bytes(bytes([c[0] for c in b]), "little")
    if not lead:
        raise ZeroDivisionError("power series inverse needs a nonzero constant term")
    g0 = _inverse_packed(field, lead)
    if n <= 1:
        return _digit_cols(g0, field.degree)
    sizes = []
    while n > 1:
        sizes.append(n)
        n = (n + 2) // 3
    # b^2 as long as it is, not padded to n, so a short divisor keeps every level lopsided
    b = [c[:sizes[0]] for c in b]
    square = _mul_cols(field, b, b, min(sizes[0], 2 * len(b[0]) - 1))
    levels = reversed(sizes)
    m = next(levels)
    cube = _digit_cols(_cube_packed(field, g0), field.degree)
    g = _mul_cols(field, [c[:m] for c in square], cube, m)
    for m in levels:
        g = _mul_cols(field, [c[:m] for c in square], _cube_cols(field, g, m), m)
    return g


def _digit_cols(packed, k):
    """The one-coefficient run of a packed element."""
    digits = packed.to_bytes(k, "little")
    return [digits[j:j + 1] for j in range(k)]


def _cube_packed(field, packed):
    """The packed cube of a packed element: the Frobenius matrix applied to
    its digits, with no FieldElement."""
    digits = packed.to_bytes(field.degree, "little")
    return int.from_bytes(bytes([sum(map(mul, row, digits)) % 3 for row in field._frobenius]),
                          "little")


def _cube_cols(field, cols, n):
    """Columns of the first n coefficients (n at most 3 times the run's
    length) of the run cubed: the Frobenius matrix maps the digits, and
    each image column spreads to every third exponent."""
    m = (n + 2) // 3
    return _spread(_f3_linear(field._frobenius, _ints(c[:m] for c in cols), m), n)


def _spread(cols, n):
    """n-byte columns holding each column's bytes at every third index
    (ceil(n/3) bytes each), zero between: the run r(X) as r(X^3)."""
    out = []
    for col in cols:
        buf = bytearray(n)
        buf[::3] = col
        out.append(buf)
    return out


def _mask(cols):
    """An int whose byte i is nonzero exactly where coefficient i is."""
    mask = 0
    for c in cols:
        mask |= int.from_bytes(c, "little")
    return mask


def _in_class(cols, at):
    """True when every nonzero coefficient of the run sits at an index =
    at (mod 3)."""
    support = bytearray(_mask(cols).to_bytes(len(cols[0]), "little"))
    support[at::3] = bytes(len(support[at::3]))
    return support.count(0) == len(support)


def _f3_linear(rows, digits, n):
    """The n-byte columns of a run (column ints) after the F3-linear map with
    matrix `rows` (entry (i, j) the t^i digit of the image of t^j) is applied
    to every coefficient."""
    out = []
    for row in rows:
        acc = sum(map(mul, row[:63], digits[:63]))
        for j in range(63, len(row), 63):  # 2 + 63 terms of at most 4 stay below 256
            acc = _reduce(acc, n) + sum(map(mul, row[j:j + 63], digits[j:j + 63]))
        out.append(acc.to_bytes(n, "little").translate(_MOD3))
    return out


def _ints(cols):
    return [int.from_bytes(c, "little") for c in cols]


def _scale_matrix(field, packed):
    """The matrix over F3 of multiplication by the packed element c, by rows
    (entry (i, j) the t^i digit of c t^j), from the field's memo or, on the
    first call, from _multiplication_rows."""
    rows = field._scale_matrices.get(packed)
    if rows is None:
        rows = field._scale_matrices[packed] = _multiplication_rows(field, packed)
    return rows


def _multiplication_rows(field, packed):
    """The rows of _scale_matrix(field, packed): each column times t is the next."""
    k, fold = field.degree, field._tables[1][0]
    top, columns = 8 * (k - 1), [packed.to_bytes(k, "little")]
    for _ in range(k - 1):
        high = packed >> top
        packed = _reduce(((packed - (high << top)) << 8) + high * fold, k)
        columns.append(packed.to_bytes(k, "little"))
    return tuple(zip(*columns))


def _euclid(field, a, b, split, stop):
    """Euclid on two runs of bytearray columns, in place, while the second
    remainder's degree is above stop; returns the last two runs. Each run
    holds a remainder below `split` and its cofactor from `split` up, and
    is long enough for every cofactor the divisions make. Inside, a run is
    its k column ints, bytes reduced mod 3 lazily. The quotient term m X^s
    cancelling a's top at d, m = -lead(a)/lead(b) and s = d - deg b, adds
    b's whole run scaled by m's matrix, shifted by s, to a's, so the
    remainder and the cofactor take the same int sum: a keeps
    r = u * g (mod X^split) for any g that b keeps it for. The scaled run is
    made once for each top a division meets and kept unreduced, a byte at
    most 4k, so a term is one shift-add per column; a's bytes are reduced
    every 253 // (4k) terms, at the end of each division, and when a top
    reads zero, which then jumps to the next nonzero top by one mask. From
    k = 64 on 4k passes 255, so the scaled runs are reduced too and a's
    bytes every 126 terms. Tops are read below split only. A divisor of
    degree above stop that is zero raises ZeroDivisionError."""
    k, zero = field.degree, bytes(field.degree)
    lazy = 4 * k < 256  # a scaled run's bytes, at most 4k, fit unreduced
    budget = 253 // (4 * k if lazy else 2)  # 2 + budget * that stays below 256
    low = (1 << 8 * split) - 1
    ra, rb, a, b = a, b, _ints(a), _ints(b)  # the runs, and their column ints
    da, db = _degree(a, low), _degree(b, low)
    while db > stop:
        if db < 0:
            raise ZeroDivisionError("polynomial division by zero")
        lead = int.from_bytes(bytes([x >> 8 * db & 255 for x in b]), "little")
        rows = _scale_matrix(field, _inverse_packed(field, _reduce(2 * lead, k)))
        images, d, terms = {}, da, 0
        while d >= db:
            top = bytes([x >> 8 * d & 255 for x in a]).translate(_MOD3)
            if top == zero:  # the next nonzero top lies below d
                a, terms = _reduced(a), 0
                d = _degree(a, low)
                continue
            image = images.get(top)
            if image is None:  # b times m, made once for each top met
                m = int.from_bytes(bytes([sum(map(mul, row, top)) % 3 for row in rows]), "little")
                scale = _scale_matrix(field, m)
                images[top] = image = (
                    [sum(map(mul, row, b)) for row in scale] if lazy
                    else _ints(_f3_linear(scale, b, max(_size(x) for x in b))))
            s = 8 * (d - db)
            a = [x + (y << s) for x, y in zip(a, image)]
            terms += 1
            if terms == budget:
                a, terms = _reduced(a), 0
            d -= 1
        a = _reduced(a)
        ra, a, rb, b, da, db = rb, b, ra, a, db, _degree(a, low)
    for run, ints in ((ra, a), (rb, b)):
        for c, x in zip(run, ints):
            c[:] = x.to_bytes(len(c), "little")
    return ra, rb


def _reduced(ints):
    """Column ints with every byte reduced mod 3."""
    return [_reduce(x, _size(x)) for x in ints]


def _size(x):
    return (x.bit_length() + 7) // 8


def _degree(ints, low):
    """The degree of a reduced run's part under the mask low; -1 for zero."""
    mask = 0
    for x in ints:
        mask |= x & low
    return _size(mask) - 1
