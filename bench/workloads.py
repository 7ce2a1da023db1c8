"""The benchmark's workloads: the jobs each one runs, and the checks that
every job's output must pass.

A job is a `char3iso` argument list. Its expected answer is worked out
here with the arithmetic of gf.py, from mathematics that does not pass
through the program: the characteristic-3 doubling formula, direct
substitution into the defining equation, brute-force root and point
counts, and Berlekamp-Massey for rational reconstruction. No output of
the program is stored.
"""

from __future__ import annotations

import functools
import random

import gf

CONSTRUCT_PREC = 512
IDENTIFY_DEGREE = 5
SWEEP_DEGREES = (1, 2, 3, 4, 5)
SWEEP_PRECS = (16, 64)
SWEEP_JOBS_PER_DEGREE = 20
# Predicted number of solutions, in rotation over each degree's jobs.
SWEEP_SOLUTIONS = (3, 1, 3, 1, 0)
SWEEP_ALPHA_EXPONENTS = (1, 4, 7, 10)


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Job:
    """One call of the command line together with what its answer must be."""

    def __init__(self, spec, argv, check):
        self.spec = spec        # the inputs, as given on the command line
        self.argv = argv
        self.check = check      # check(rc, stdout_text) raises CheckFailed


@functools.cache
def _field(modulus):
    return gf.Field(modulus)


def field_from_modulus(modulus):
    return _field(tuple(modulus))


def _first_irreducible(k):
    """The documented default modulus: the first monic irreducible of degree
    k, counting (c0, c1, ...) in ascending base-3 order with c0 lowest."""
    n = 0
    while True:
        tail = [(n // 3 ** i) % 3 for i in range(k)]
        if gf.irreducible_over_f3(tail + [1]):
            return tail + [1]
        n += 1


def default_field(k):
    return field_from_modulus(_first_irreducible(k))


# ---- reading the records format ------------------------------------------------

def parse_records(text):
    """Header keys and the list of solution blocks of a records transcript."""
    header, blocks = {}, []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        _require(sep, f"line without '=': {line!r}")
        if key == "solution":
            _require(value == str(len(blocks)), f"solution block {value} out of order")
            blocks.append({})
            continue
        target = blocks[-1] if blocks else header
        _require(key not in target, f"key {key} repeated")
        target[key] = value
    return header, blocks


def _header_field(header, k):
    _require(header.get("field") == f"3^{k}", f"field={header.get('field')}")
    modulus = gf.parse_rational(gf.Field((0, 1)), header["modulus"].replace("t", "x"))
    _require(modulus[1] == [1], "modulus is not a polynomial")
    F = field_from_modulus(modulus[0])
    _require(F.k == k, "modulus degree differs from the field degree")
    return F


def _eta(F, text, prec):
    eta = {}
    if text != "0":
        for pair in text.split(" "):
            e, _, v = pair.partition(":")
            eta[int(e)] = gf.parse_element(F, v)
    _require(all(c for c in eta.values()), "eta lists a zero coefficient")
    _require(all(e < prec for e in eta), "eta lists a coefficient beyond its precision")
    return eta


# ---- construct: shared part ------------------------------------------------------

def _construct_common(job, rc, text):
    """Header echo and solution blocks; returns (F, header, blocks, etas)."""
    header, blocks = parse_records(text)
    F = _header_field(header, job["k"])
    _require(header.get("command") == "construct", "command")
    _require(header.get("prec") == str(job["prec"]), "prec")
    for key in ("A", "B", "c"):
        _require(gf.parse_element(F, header[key]) == gf.parse_element(F, job[key]),
                 f"{key}={header[key]} differs from the input {job[key]}")
    _require(header.get("seed_kind") == job["kind"], "seed_kind")
    _require(header.get("num_solutions") == str(len(blocks)), "num_solutions")
    _require(rc == (0 if blocks else 2), f"exit code {rc} with {len(blocks)} solutions")
    _require(header.get("status") == ("ok" if blocks else "incompatible"), "status")
    etas = []
    for block in blocks:
        _require(block.get("certified_prec") == str(job["prec"]), "certified_prec")
        eta = _eta(F, block["eta_coeffs"], job["prec"])
        _require(gf.parse_element(F, block["gamma0"]) == eta.get(0, 0),
                 "gamma0 is not the constant term of eta")
        etas.append(eta)
    return F, header, blocks, etas


def _check_map_rows(F, c, block, rational):
    """rational= and y_factor= are the given function and c times its derivative."""
    got = gf.parse_rational(F, block["rational"])
    _require(gf.rat_equal(F, got, rational), f"rational={block['rational']}")
    fy = gf.parse_rational(F, block["y_factor"])
    num, den = gf.rat_derivative(F, rational)
    _require(gf.rat_equal(F, fy, (gf.pscale(F, num, c), den)), f"y_factor={block['y_factor']}")


# ---- construct-mul2: the doubling map and its kernel translates --------------------

def mul2_job():
    spec = dict(k=2, A="1", B="2", c="1", kind="beta", seed="x^2/(x^9+x^3-1)",
                prec=CONSTRUCT_PREC)
    return Job(spec, _construct_argv(spec), lambda rc, text: check_mul2(spec, rc, text))


def check_mul2(job, rc, text):
    """eta = x + A^2/(x^3+Ax+B) + kappa for the three kernel constants kappa."""
    F, header, blocks, etas = _construct_common(job, rc, text)
    A, B, c = (gf.parse_element(F, job[key]) for key in ("A", "B", "c"))
    cubic = [B, A, 0, 1]
    kernel = F.cubic_roots(A, 0)
    _require(len(blocks) == len(kernel) == 3, f"{len(blocks)} solutions, expected 3")
    seen = set()
    for block, eta in zip(blocks, etas):
        kappa = F.sub(eta.get(0, 0), F.mul(F.mul(A, A), F.inv(B)))
        _require(kappa in kernel and kappa not in seen, f"constant {F.text(kappa)} is no new kernel element")
        seen.add(kappa)
        num = gf.padd(F, gf.padd(F, gf.pmul(F, [0, 1], cubic), [F.mul(A, A)]),
                      gf.pscale(F, cubic, kappa))
        expected = gf.series_of_rational(F, (num, cubic), job["prec"])
        _require(eta == expected, "eta differs from the doubling formula plus its constant")
        _check_map_rows(F, c, block, (num, cubic))
    return "3 solutions = doubling formula + kernel"


# ---- construct from a polynomial alpha seed: substitution and root counts -----------

def nonrational_job():
    spec = dict(k=2, A="1", B="1", c="1", kind="alpha", seed="x^7+x^4+x",
                prec=CONSTRUCT_PREC)
    return Job(spec, _construct_argv(spec), lambda rc, text: check_alpha_seed(spec, rc, text))


def check_alpha_seed(job, rc, text):
    """For B != 0 and a polynomial alpha seed S with a1 = [x^1] S:
    the constant terms are the roots of t^3 + A t = B (c^2 a1^2 - 1);
    the residue-1 part of each eta is S; each eta satisfies the defining
    equation by direct substitution; two solutions differ by a kernel
    constant; and Pade declines exactly when Berlekamp-Massey finds no
    recurrence that fits the degree bound."""
    F, header, blocks, etas = _construct_common(job, rc, text)
    A, B, c = (gf.parse_element(F, job[key]) for key in ("A", "B", "c"))
    prec = job["prec"]
    seed_num, seed_den = gf.parse_rational(F, job["seed"])
    _require(seed_den == [1], "the benchmark only generates polynomial alpha seeds")
    a1 = seed_num[1] if len(seed_num) > 1 else 0
    rhs = psi0(F, B, c, a1)
    roots = F.cubic_roots(A, rhs)
    _require(gf.parse_element(F, header["psi0"]) == rhs, f"psi0={header['psi0']}")
    _require(gf.parse_element(F, header["alpha1"]) == a1, f"alpha1={header['alpha1']}")
    _require(len(blocks) == len(roots), f"{len(blocks)} solutions, brute force finds {len(roots)}")
    _require(sorted(eta.get(0, 0) for eta in etas) == sorted(roots), "constant terms are not the roots")
    seed_series = {e: v for e, v in enumerate(seed_num) if v and e < prec}
    kernel = set(F.cubic_roots(A, 0))
    bound = max(1, prec // 2 - 2)  # the command's Pade degree bound
    for block, eta in zip(blocks, etas):
        _require({e: v for e, v in eta.items() if e % 3 == 1} == seed_series,
                 "the alpha part of eta is not the seed")
        _require(not eta or min(eta) >= 0, "eta has a pole although B != 0")
        _require(_residual(F, A, B, F.mul(c, c), eta, prec) == {}, "eta fails the defining equation")
        seq = [eta.get(e, 0) for e in range(prec)]
        length, conn = gf.linear_complexity(F, seq)
        fits = length <= bound + 1 and len(gf.ptrim(conn)) - 1 <= bound
        if block["rational"] == "none":
            _require(not fits, f"Pade declined but a recurrence of length {length} fits")
            _require(block["y_factor"] == "none", "y_factor without a rational form")
        else:
            _require(fits, f"rational form given but linear complexity is {length}")
            rational = gf.parse_rational(F, block["rational"])
            _require(gf.series_of_rational(F, rational, prec) == eta,
                     "the rational form does not expand to eta")
            _check_map_rows(F, c, block, rational)
    for i, eta_i in enumerate(etas):
        for eta_j in etas[i + 1:]:
            diff = gf.series_add(F, eta_i, gf.series_scale(F, eta_j, F.neg[1]))
            _require(set(diff) == {0} and diff[0] in kernel,
                     "two solutions differ by more than a kernel constant")
    return f"{len(blocks)} solutions"


def psi0(F, B, c, a1):
    """psi(0) = B (c^2 a1^2 - 1) for B != 0 and an alpha seed with [x^1] = a1;
    the constant terms of the solutions are the roots of t^3 + A t = psi(0)."""
    return F.mul(B, F.sub(F.mul(F.mul(c, c), F.mul(a1, a1)), 1))


def _residual(F, A, B, c2, eta, prec):
    """c^2 (X^3+AX+B) (eta')^2 - eta^3 - A eta - B, below the exponent
    that eta known modulo X^prec determines."""
    d = gf.series_deriv(F, eta)
    limit = prec - 1 + (min(d) if d else 1)
    lhs = gf.series_mul(F, {0: B, 1: A, 3: 1}, gf.series_mul(F, d, d, limit), limit)
    lhs = gf.series_scale(F, lhs, c2)
    rhs = gf.series_add(F, gf.series_cube(F, eta), gf.series_scale(F, eta, A), {0: B})
    residual = gf.series_add(F, lhs, gf.series_scale(F, rhs, F.neg[1]))
    return gf.series_truncate(residual, limit)


# ---- identify-mul2: the doubling map on the points of GF(3^k) -----------------------

def identify_job():
    k = IDENTIFY_DEGREE
    F = default_field(k)
    A, B = 1, 2
    cubic = [B, A, 0, 1]
    fx = (gf.padd(F, gf.pmul(F, [0, 1], cubic), [F.mul(A, A)]), cubic)
    # [m] pulls the invariant differential dx/y back to m dx/y, so the
    # y-multiplier of [2] is 2 fx' (c = 1 would give [-2]).
    num, den = gf.rat_derivative(F, fx)
    num = gf.pscale(F, num, F.from_int(2))
    fx_text = f"({gf.poly_text(F, fx[0])})/({gf.poly_text(F, fx[1])})"
    fy_text = f"({gf.poly_text(F, num)})/({gf.poly_text(F, den)})"
    spec = dict(k=k, A=str(A), B=str(B), fx=fx_text, fy=fy_text)
    argv = ["identify", "--field", f"3^{k}", "--A", spec["A"], "--B", spec["B"],
            "--fx", fx_text, f"--fy-factor={fy_text}", "--format", "records"]
    return Job(spec, argv, lambda rc, text: check_identify(spec, rc, text))


def check_identify(job, rc, text):
    """scalar=2 for the doubling map, and #E(GF(3^k)) = 3^k + 1 - s_k with
    s_1 from counting points over F3 and s_k = s_1 s_(k-1) - 3 s_(k-2)."""
    header, blocks = parse_records(text)
    _require(rc == 0 and not blocks, f"exit code {rc}")
    F = _header_field(header, job["k"])
    _require(header.get("command") == "identify", "command")
    expected_points = _point_count(job["k"], int(job["A"]), int(job["B"]))
    _require(header.get("points") == str(expected_points),
             f"points={header.get('points')}, expected {expected_points}")
    for key, given in (("fx", job["fx"]), ("fy_factor", job["fy"])):
        _require(gf.rat_equal(F, gf.parse_rational(F, header[key]), gf.parse_rational(F, given)),
                 f"{key}={header[key]} differs from the input")
    _require(header.get("all_on_curve") == "true", "all_on_curve")
    _require(header.get("homomorphism") == "true", "homomorphism")
    _require(header.get("scalar") == "2", f"scalar={header.get('scalar')}")
    return f"{expected_points} points, scalar 2"


def _point_count(k, A, B):
    """#E(GF(3^k)) for y^2 = x^3 + A x + B with A, B in F3."""
    f3_points = 1 + sum({0: 1, 1: 2, 2: 0}[(x ** 3 + A * x + B) % 3] for x in range(3))
    s = [2, 3 + 1 - f3_points]
    for _ in range(2, k + 1):
        s.append(s[1] * s[-1] - 3 * s[-2])
    return 3 ** k + 1 - s[k]


# ---- sweep-small: seeded random curves and alpha seeds ---------------------------------

def sweep_jobs(seed):
    """SWEEP_JOBS_PER_DEGREE jobs per degree at precisions spread evenly over
    SWEEP_PRECS, with answers of 3, 1 and 0 solutions in a fixed rotation
    (drawn by rejection). The seed draws the curves and the seeds' values;
    precisions, answers and seed shapes are the same for every seed, so the
    median job repeats."""
    rng = random.Random(f"sweep-small:{seed}")
    lo, hi = SWEEP_PRECS
    n = SWEEP_JOBS_PER_DEGREE
    jobs = []
    for k in SWEEP_DEGREES:
        F = default_field(k)
        for i in range(n):
            prec = lo + (hi - lo) * i // (n - 1)
            jobs.append(_sweep_job(rng, F, prec, SWEEP_SOLUTIONS[i % len(SWEEP_SOLUTIONS)]))
    return jobs


def _sweep_job(rng, F, prec, want):
    nonzero = range(1, F.q)
    while True:
        A, B, c = rng.choice(nonzero), rng.choice(nonzero), rng.choice(nonzero)
        # a1 decides the number of solutions; the other terms are nonzero so
        # that every seed has the same number of terms
        coeffs = {e: rng.choice(nonzero) for e in SWEEP_ALPHA_EXPONENTS}
        coeffs[1] = a1 = rng.randrange(F.q)
        if len(F.cubic_roots(A, psi0(F, B, c, a1))) == want:
            break
    seed_poly = [coeffs.get(e, 0) for e in range(max(SWEEP_ALPHA_EXPONENTS) + 1)]
    spec = dict(k=F.k, A=F.text(A), B=F.text(B), c=F.text(c), kind="alpha",
                seed=gf.poly_text(F, gf.ptrim(seed_poly)), prec=prec)
    return Job(spec, _construct_argv(spec), lambda rc, text: check_alpha_seed(spec, rc, text))


def _construct_argv(spec):
    return ["construct", "--field", f"3^{spec['k']}", f"--A={spec['A']}", f"--B={spec['B']}",
            f"--c={spec['c']}", f"--seed-{spec['kind']}={spec['seed']}",
            "--prec", str(spec["prec"]), "--format", "records"]


WORKLOADS = {
    "construct-mul2": lambda seed: [mul2_job()],
    "construct-nonrational": lambda seed: [nonrational_job()],
    "identify-mul2": lambda seed: [identify_job()],
    "sweep-small": sweep_jobs,
}


def expected(name, seed):
    """What the program must answer on a workload, from this module alone."""
    lines = []
    for job in WORKLOADS[name](seed):
        spec = job.spec
        lines.append(" ".join(job.argv))
        if name == "identify-mul2":
            lines.append(f"  expect points={_point_count(spec['k'], int(spec['A']), int(spec['B']))} "
                         "scalar=2")
            continue
        F = default_field(spec["k"])
        A, B, c = (gf.parse_element(F, spec[key]) for key in ("A", "B", "c"))
        if spec["kind"] == "beta":  # the doubling map and its kernel translates
            lines.append(f"  expect 3 solutions: x + A^2/(x^3+Ax+B) + kappa, kappa in "
                         f"{{{', '.join(F.text(x) for x in F.cubic_roots(A, 0))}}}")
            continue
        seed_num, _ = gf.parse_rational(F, spec["seed"])
        rhs = psi0(F, B, c, seed_num[1] if len(seed_num) > 1 else 0)
        roots = F.cubic_roots(A, rhs)
        lines.append(f"  expect psi0={F.text(rhs)} num_solutions={len(roots)} "
                     f"gamma0 in {{{', '.join(F.text(r) for r in roots)}}}")
    return "\n".join(lines)


if __name__ == "__main__":
    import sys

    # python3 bench/workloads.py WORKLOAD [SEED]
    print(expected(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 1))
