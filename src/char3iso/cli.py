"""Command-line interface.

Subcommands:
    construct   build all formal endomorphisms from an alpha or beta seed
    verify      test an x-part against the defining functional equation
    identify    apply a coordinate map pointwise and look for a scalar
    example     run one of the four bundled worked examples (1..4)

Exit codes: 0 success, 1 verification failure / example mismatch,
2 incompatible seed, 3 parse or usage error, 4 invalid curve parameters.

With --format records the output is line-oriented key=value pairs, one
solution block per admissible constant term.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import islice

from .errors import (
    FieldTooLarge,
    IncompatibleSeed,
    InvalidCurveParameters,
    ParseError,
    SeedError,
    VerificationFailed,
    ZeroDenominator,
)
from .exprparse import _is_uint, parse_field_element, parse_rational_function
from .gf3field import DEFAULT_MODULI, FieldParams
from .isocore import (CurveParams, Seed, construct, construct_with_report,
                      verify_functional_equation)
from .ratrec import RationalFunction, coefficients, degree, derive_map_pair, pade
from .record import Record
from .series import LaurentSeries

PREC_MIN, PREC_MAX = 16, 8192
TEXT_TERMS_SHOWN = 10


class JobSpec(Record):
    """A fully parsed command invocation."""

    __slots__ = ("field", "curve", "prec", "fmt")


def check_map(*args):
    """curve.check_map, imported on the first call: construct and verify never load curve."""
    from .curve import check_map
    return check_map(*args)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means IncompatibleSeed
    # here, so route usage problems to the parse-error code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _integer(text):
    """ASCII digits after an optional minus sign: int() also takes '6_4', '+64', ' 64', '٦٤'."""
    if not _is_uint(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_common(p):
    p.add_argument("--field", default="3^1", metavar="3^K",
                   help="field order as 3^k (default 3^1)")
    p.add_argument("--modulus", default=None, metavar="TEXT",
                   help="monic irreducible modulus in t (default: built-in table)")
    p.add_argument("--A", required=True, metavar="TEXT", help="curve coefficient A")
    p.add_argument("--B", default="0", metavar="TEXT", help="curve coefficient B")
    p.add_argument("--c", default="1", metavar="TEXT",
                   help="scale constant of the y-coordinate map")
    p.add_argument("--prec", type=_integer, default=64, metavar="N",
                   help=f"working precision in [{PREC_MIN}, {PREC_MAX}]")
    p.add_argument("--format", choices=("text", "records"), default="text",
                   help="human text or machine key=value records")


@functools.cache
def build_parser():
    parser = _Parser(prog="char3iso",
                     description="Formal endomorphisms of y^2 = x^3 + A x + B "
                                 "in characteristic three.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build endomorphisms from a seed")
    _add_common(p)
    p.add_argument("--seed-alpha", metavar="TEXT",
                   help="alpha seed as a rational function in x")
    p.add_argument("--seed-beta", metavar="TEXT",
                   help="beta seed as a rational function in x")
    p.add_argument("--seed-coeffs", metavar="LIST",
                   help="polynomial seed as comma-separated coefficients, "
                        "constant term first")
    p.add_argument("--seed-kind", choices=("alpha", "beta"), default="alpha",
                   help="which part --seed-coeffs describes (default alpha)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check an x-part against the defining equation")
    _add_common(p)
    p.add_argument("--eta", metavar="TEXT", help="x-part as a rational function")
    p.add_argument("--eta-coeffs", metavar="LIST",
                   help="x-part polynomial as comma-separated coefficients")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identify", help="apply a map pointwise and find its scalar")
    _add_common(p)
    p.add_argument("--fx", required=True, metavar="TEXT",
                   help="x-coordinate map as a rational function")
    p.add_argument("--fy-factor", required=True, metavar="TEXT",
                   help="multiplier of y in the second coordinate")
    p.add_argument("--max-scalar", type=_integer, default=10, metavar="M",
                   help="largest scalar to try (default 10)")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("example", help="reproduce a bundled worked example")
    p.add_argument("n", type=_integer, choices=(1, 2, 3, 4), help="example number")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=cmd_example)

    return parser


# ---- shared construction of a JobSpec ------------------------------------

def _parse_field(args):
    text = args.field.strip()
    if not text.startswith("3^"):
        raise ParseError(0, "field must be written as 3^k")
    try:
        k = int(text[2:]) if _is_uint(text[2:]) else 0
    except ValueError:  # int() refuses over 4,300 digits
        raise ParseError(2, "field degree is too large") from None
    if k < 1:
        raise ParseError(2, "field degree must be a positive integer")
    if args.modulus is None and k not in DEFAULT_MODULI:
        raise ParseError(0, f"no default modulus for degree {k}; pass --modulus")
    modulus = None if args.modulus is None else _parse_modulus(args.modulus)
    try:
        return FieldParams(k, modulus)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def _parse_modulus(text):
    """A polynomial in t over F3, as coefficients low to high."""
    if "x" in text:  # read as t below, so refuse it before the swap
        raise ParseError(text.index("x"), "'x' is not allowed in a modulus, a polynomial in t")
    prime = FieldParams(1)
    rf = parse_rational_function(text.replace("t", "x"), prime)
    if degree(rf.den) != 0:
        raise ParseError(0, "modulus must be a polynomial")
    return [c.coeffs[0] for c in coefficients(rf.num)]


def _job_from_args(args):
    field = _parse_field(args)
    A = parse_field_element(args.A, field)
    B = parse_field_element(args.B, field)
    c = parse_field_element(args.c, field)
    curve = CurveParams(field, A, B, c)
    if not PREC_MIN <= args.prec <= PREC_MAX:
        raise ParseError(0, f"prec must lie in [{PREC_MIN}, {PREC_MAX}]")
    return JobSpec(field=field, curve=curve, prec=args.prec, fmt=args.format)


def _seed_from_args(args, field):
    given = [s for s in (args.seed_alpha, args.seed_beta, args.seed_coeffs)
             if s is not None]
    if len(given) != 1:
        raise ParseError(0, "give exactly one of --seed-alpha, --seed-beta, "
                            "--seed-coeffs")
    if args.seed_alpha is not None:
        return Seed.alpha(parse_rational_function(args.seed_alpha, field))
    if args.seed_beta is not None:
        return Seed.beta(parse_rational_function(args.seed_beta, field))
    poly = _coeffs_polynomial(args.seed_coeffs, field)
    return Seed.alpha(poly) if args.seed_kind == "alpha" else Seed.beta(poly)


def _coeffs_polynomial(text, field):
    """The polynomial of a comma-separated coefficient list, constant term
    first; an error's offset counts from the start of the whole list."""
    coeffs, start = [], 0
    for part in text.split(","):
        try:
            coeffs.append(parse_field_element(part.strip(), field))
        except ParseError as exc:
            raise exc.shifted(start + len(part) - len(part.lstrip())) from None
        start += len(part) + 1
    return LaurentSeries.from_coeffs(field, 0, coeffs)


def _emit_header(out, job, command):
    out(f"command={command}")
    out(f"field=3^{job.field.degree}")
    out(f"modulus={job.field.modulus_text}")
    out(f"A={job.curve.A}")
    out(f"B={job.curve.B}")
    out(f"c={job.curve.c}")
    out(f"prec={job.prec}")


# ---- construct ------------------------------------------------------------

def _rational_forms(curve, prec, endos):
    """The Pade degree bound and each solution's maps (fx, fy_factor), or None.

    Pade runs once: every other solution is eta + kappa, and (P + kappa Q)/Q
    is again reduced with the same denominator and degree bounds, so by the
    uniqueness of Pade forms its reconstruction is rational + kappa. The
    constant kappa leaves c * eta' alone, so fy_factor is derived once."""
    bound = max(1, prec // 2 - 2)
    first = pade(endos[0].eta, bound, bound) if endos else None
    if first is None:
        return bound, [None] * len(endos)
    fx, fy = derive_map_pair(curve, first)
    return bound, [(fx + (e.gamma0 - endos[0].gamma0), fy) for e in endos]


def _solution_rows(endo, pair):
    fx, fy = pair or ("none", "none")
    return {"gamma0": str(endo.gamma0), "rational": str(fx), "y_factor": str(fy)}


def _emit_construct_head(out, job, seed):
    _emit_header(out, job, "construct")
    out(f"seed_kind={seed.kind}")
    out(f"seed={seed.source}")


def _print_construct_records(job, seed, report, endos, out):
    _emit_construct_head(out, job, seed)
    out(f"status={'ok' if endos else 'incompatible'}")
    out(f"psi0={report.psi0}")
    out(f"principal_part_ok={str(report.principal_part_ok).lower()}")
    out(f"beta_minus1={report.beta_minus1}")
    out(f"alpha1={report.alpha1}")
    out(f"num_solutions={len(endos)}")
    _, maps = _rational_forms(job.curve, job.prec, endos)
    names = job.field._names
    if endos:  # the solutions are eta + kappa for constants kappa: they differ only at X^0
        terms = list(endos[0].eta._terms())
        below = " ".join([f"{e}:{names[p]}" for e, p in terms if e < 0])
        above = " ".join([f"{e}:{names[p]}" for e, p in terms if e > 0])
    for i, (endo, pair) in enumerate(zip(endos, maps)):
        rows = _solution_rows(endo, pair)
        at0 = endo.eta.coefficient(0).packed
        eta_text = " ".join(filter(None, (below, f"0:{names[at0]}" if at0 else "", above))) or "0"
        out(f"solution={i}")
        out(f"gamma0={rows['gamma0']}")
        out(f"eta_coeffs={eta_text}")
        out(f"certified_prec={endo.prec}")
        out(f"rational={rows['rational']}")
        out(f"y_factor={rows['y_factor']}")


def _print_construct_text(job, seed, report, endos, out):
    curve = job.curve
    out(f"curve: y^2 = x^3 + ({curve.A})*x + ({curve.B}) over "
        f"GF(3^{job.field.degree}), modulus {job.field.modulus_text}, c = {curve.c}")
    out(f"seed ({seed.kind}): {seed.source}")
    out(f"psi(0) = {report.psi0}; principal part ok: {report.principal_part_ok}; "
        f"[x^-1]beta = {report.beta_minus1}; [x^1]alpha = {report.alpha1}")
    out(f"solutions: {len(endos)}")
    bound, maps = _rational_forms(curve, job.prec, endos)
    for i, (endo, pair) in enumerate(zip(endos, maps)):
        rows = _solution_rows(endo, pair)
        out(f"  #{i}: gamma0 = {rows['gamma0']}")
        shown = list(islice(endo.eta.nonzero_terms(), TEXT_TERMS_SHOWN + 1))
        body = " + ".join(f"({c})*x^{e}" for e, c in shown[:TEXT_TERMS_SHOWN]) or "0"
        more = " + ..." if len(shown) > TEXT_TERMS_SHOWN else ""
        out(f"      eta = {body}{more}  (exact to x^{endo.prec})")
        if rows["rational"] != "none":
            out(f"      rational form: {rows['rational']}")
            out(f"      y-multiplier:  y * {rows['y_factor']}")
        else:
            out(f"      no rational form within degree {bound}")


def cmd_construct(args):
    job = _job_from_args(args)
    seed = _seed_from_args(args, job.field)
    out = print
    try:
        report, endos = construct_with_report(job.curve, seed, job.prec)
    except IncompatibleSeed as exc:
        if job.fmt != "records":
            out(f"incompatible seed: {exc}")
        elif exc.report is not None:
            _print_construct_records(job, seed, exc.report, [], out)
        else:  # no psi was assembled, so there is no report to print
            _emit_construct_head(out, job, seed)
            out(f"status=incompatible\nreason={exc}\nnum_solutions=0")
        return 2
    if job.fmt == "records":
        _print_construct_records(job, seed, report, endos, out)
    else:
        _print_construct_text(job, seed, report, endos, out)
    return 0 if endos else 2


# ---- verify ---------------------------------------------------------------

def cmd_verify(args):
    job = _job_from_args(args)
    field = job.field
    given = [s for s in (args.eta, args.eta_coeffs) if s is not None]
    if len(given) != 1:
        raise ParseError(0, "give exactly one of --eta, --eta-coeffs")
    if args.eta is not None:
        eta_rf = parse_rational_function(args.eta, field)
    else:
        eta_rf = RationalFunction.from_polynomial(_coeffs_polynomial(args.eta_coeffs, field))
    eta_text = str(eta_rf)
    out = print
    records = job.fmt == "records"
    if records:
        _emit_header(out, job, "verify")
        out(f"eta={eta_text}")
    if not eta_rf.is_zero and eta_rf.num.val - eta_rf.den.val < -1:
        reason = "eta has a pole of order greater than one"
        out(f"status=fail\nreason={reason}" if records else f"FAIL: {reason}")
        return 1
    report = verify_functional_equation(job.curve, eta_rf)  # exact: --prec plays no part
    if records:
        out(f"status={'pass' if report.ok else 'fail'}")
        out("checked_prec=inf")
        out(f"first_bad_exponent={report.first_bad_exponent if not report.ok else 'none'}")
        out(f"first_bad_coefficient={report.first_bad_coefficient if not report.ok else 'none'}")
    else:
        out(f"eta = {eta_text} on y^2 = x^3 + ({job.curve.A})*x + ({job.curve.B}), "
            f"c = {job.curve.c}")
        if report.ok:
            out("functional equation holds exactly")
        else:
            out(f"FAIL at x^{report.first_bad_exponent}: residual coefficient "
                f"{report.first_bad_coefficient}")
    return 0 if report.ok else 1


# ---- identify ---------------------------------------------------------------

def cmd_identify(args):
    job = _job_from_args(args)
    if args.max_scalar < 1:
        raise ParseError(0, "max-scalar must be at least 1")
    fx = parse_rational_function(args.fx, job.field)
    fy = parse_rational_function(args.fy_factor, job.field)
    report = check_map(job.curve, fx, fy, args.max_scalar)
    scalar = report.scalar
    out = print
    if job.fmt == "records":
        _emit_header(out, job, "identify")
        out(f"fx={fx}")
        out(f"fy_factor={fy}")
        out(f"points={report.point_count}")
        out(f"all_on_curve={str(report.all_on_curve).lower()}")
        out(f"homomorphism={str(report.homomorphism_ok).lower()}")
        out(f"scalar={scalar if scalar is not None else 'none'}")
    else:
        out(f"map (x, y) -> ({fx}, y * ({fy})) on {report.point_count} points")
        out(f"all images on curve: {report.all_on_curve}")
        out(f"homomorphism on rational points: {report.homomorphism_ok} "
            f"({report.pairs_checked} pairs)")
        if scalar is not None:
            out(f"scalar: {scalar}")
        elif report.homomorphism_ok:
            out("scalar: none (no multiplication map matches pointwise)")
        else:
            out("scalar: none")
    return 0


# ---- bundled worked examples ------------------------------------------------

# Each example is a construct invocation plus the facts its run must show:
# "solutions" the x-parts, of which only the count is printed; "etas" the
# x-parts, printed in full; "fails" a form that must fail the defining
# equation, with a "note"; "pointwise" that every map sends the rational
# points onto the curve; "rational" the x-part of the solution with a given
# gamma0; "scalar" the multiplication map it is.
_EXAMPLES = {
    1: dict(flags=["--A=1", "--B=1", "--seed-alpha=x"], solutions=("x",), fails="x+1",
            note="only c0 = 0 solves c0^3 + c0 = 0 over GF(3), so x is the only "
                 "translate; x+1 fails the defining equation at x^0"),
    2: dict(flags=["--A=2", "--B=0", "--seed-alpha=x"], etas=("x", "x+1", "x+2")),
    3: dict(flags=["--A=2", "--B=0", "--seed-beta=-1/x"], pointwise=True,
            etas=("(2)/(x)", "(x+2)/(x)", "(2*x+2)/(x)")),
    4: dict(flags=["--field=3^2", "--A=1", "--B=2", "--seed-beta=x^2/(x^9+x^3-1)",
                   "--prec=128"],
            rational=("2", "(x^4+x^2+2*x+1)/(x^3+x+2)"), scalar=2),
}


def _example_job(n):
    """The job and seed of worked example n, parsed as construct arguments."""
    args = build_parser().parse_args(["construct", *_EXAMPLES[n]["flags"]])
    job = _job_from_args(args)
    return job, _seed_from_args(args, job.field)


def cmd_example(args):
    n, ex = args.n, _EXAMPLES[args.n]
    job, seed = _example_job(n)
    curve, records = job.curve, args.format == "records"
    endos = construct(curve, seed, job.prec)
    _, maps = _rational_forms(curve, job.prec, endos)
    rows = [_solution_rows(e, pair) for e, pair in zip(endos, maps)]
    got = tuple(row["rational"] for row in rows)
    checks = []

    def show(record_lines, text_lines):
        for line in record_lines if records else text_lines:
            print(line)

    if records:
        _emit_header(print, job, "example")
    show([f"example={n}", f"seed_kind={seed.kind}", f"seed={seed.source}",
          f"num_solutions={len(endos)}"],
         [f"worked example {n}: y^2 = x^3 + ({curve.A})*x + ({curve.B}) over "
          f"GF(3^{job.field.degree}), seed {seed.kind} = {seed.source}, prec {job.prec}",
          f"solutions found: {len(endos)}"])
    for i, row in enumerate(rows):
        desc = row["rational"] if maps[i] is not None else "(not rational at this degree bound)"
        show([f"solution={i}"] + [f"{key}={value}" for key, value in row.items()],
             [f"  gamma0 = {row['gamma0']}: eta = {desc}"])
    if "solutions" in ex:
        checks.append(got == ex["solutions"])
        show([f"expected_solutions={len(ex['solutions'])}"], [])
    if "fails" in ex:
        form = parse_rational_function(ex["fails"], job.field)
        report = verify_functional_equation(curve, form)
        checks.append(not report.ok)
        show([f"verify_{ex['fails'].replace('+', '_plus_')}={'pass' if report.ok else 'fail'}",
              f"note={ex['note']}"],
             [f"check: {ex['fails']} satisfies the defining equation: {report.ok} "
              f"(first residual at x^{report.first_bad_exponent})", f"note: {ex['note']}"])
    if ex.get("pointwise"):
        for i, pair in enumerate(maps):
            checks.append(pair is not None)
            if pair is None:
                continue
            fx, fy = pair
            report = check_map(curve, fx, fy, 10)
            checks.append(report.all_on_curve)
            show([f"map_{i}_y_factor={fy}",
                  f"map_{i}_pointwise_on_curve={str(report.all_on_curve).lower()}"],
                 [f"  map #{i}: (x, y) -> ({fx}, y * ({fy})); images on curve for all "
                  f"{report.point_count} points: {report.all_on_curve}"])
    if "etas" in ex:
        match = got == ex["etas"]
        checks.append(match)
        show([f"expected_etas={' '.join(ex['etas'])}", f"etas_match={str(match).lower()}"],
             [f"expected x-parts: {', '.join(ex['etas'])}; match: {match}"])
    if "rational" in ex:
        gamma0, expected = ex["rational"]
        pair = next((p for e, p in zip(endos, maps) if str(e.gamma0) == gamma0), None)
        rational = scalar = None
        if pair is not None:
            rational, scalar = pair[0], check_map(curve, *pair, 10).scalar
        match = rational is not None and str(rational) == expected
        checks.append(match and scalar == ex["scalar"])
        show([f"expected_rational={expected}", f"rational_match={str(match).lower()}",
              f"scalar={scalar if scalar is not None else 'none'}"],
             [f"gamma0 = {gamma0} solution reconstructs to {rational} (expected {expected})",
              f"pointwise scalar over E(GF({job.field.order})): {scalar}"])
    ok = all(checks)
    show([f"status={'ok' if ok else 'mismatch'}"], [f"overall: {'ok' if ok else 'MISMATCH'}"])
    return 0 if ok else 1


# ---- entry point ------------------------------------------------------------

def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output: exit as a shell reports a
        # process killed by SIGPIPE (128 + 13), with stdout on devnull so
        # that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ZeroDenominator) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except SeedError as exc:
        print(f"invalid seed: {exc}", file=sys.stderr)
        return 2
    except IncompatibleSeed as exc:
        print(f"incompatible seed: {exc}", file=sys.stderr)
        return 2
    except InvalidCurveParameters as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 4
    except FieldTooLarge as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
