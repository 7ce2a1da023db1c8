import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import char3iso
from char3iso import isocore, kronecker
from char3iso import (
    BadInitial,
    CurveParams,
    IncompatibleSeed,
    InvalidCurveParameters,
    LaurentSeries,
    NonRegularPsi,
    Seed,
    SeedError,
    construct,
    construct_with_report,
    parse_rational_function,
    verify_functional_equation,
)
from char3iso.gf3field import solve_additive_cubic
from char3iso.isocore import (
    CompatReport,
    FormalEndomorphism,
    FunctionalEquationReport,
    solve_gamma,
)
from char3iso.cli import _EXAMPLES, JobSpec, _example_job, _rational_forms
from char3iso.curve import MapCheckReport, check_map
from char3iso.gf3field import FieldElement, FieldParams
from char3iso.ratrec import derive_map_pair, pade
from char3iso.series import INF, in_residue_class

from helpers import (
    Point,
    alpha_from_beta,
    beta_from_alpha,
    check_cubic_membership,
    closed_form_conditions,
    compatibility_check,
    compute_psi,
    construct_per_root,
    gamma_by_recurrence,
    psi_by_formula,
    seed_parts,
    split,
)


def S(field, terms, prec=INF):
    return LaurentSeries.from_terms(field, terms, prec)


@pytest.fixture(scope="module")
def curve_a1b1(f3):
    return CurveParams(f3, A=1, B=1, c=1)


@pytest.fixture(scope="module")
def curve_am1b0(f3):
    return CurveParams(f3, A=-1, B=0, c=1)


@pytest.fixture(scope="module")
def curve_gf9(f9):
    return CurveParams(f9, A=1, B=2, c=1)


# ---- parameter and seed validation ------------------------------------------


def test_singular_curve_rejected(f3):
    with pytest.raises(InvalidCurveParameters):
        CurveParams(f3, A=0, B=1, c=1)


def test_zero_scale_rejected(f3):
    with pytest.raises(InvalidCurveParameters):
        CurveParams(f3, A=1, B=1, c=0)


def test_records_are_frozen_and_equal_values_hash_equal(f9):
    def records():
        curve = CurveParams(f9, A=1, B=2, c=1)
        seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
        report, endos = construct_with_report(curve, seed, 16)
        one = parse_rational_function("1", f9)
        return (Point(f9.gen, f9.one), curve, seed, report, endos[0],
                verify_functional_equation(curve, endos[0].eta),
                check_map(curve, parse_rational_function("x", f9), one, 10),
                JobSpec(f9, curve, 16, "records"))

    kinds = set()
    for a, b in zip(records(), records()):
        kinds.add(type(a))
        assert a is not b and a == b and hash(a) == hash(b)
        for name in type(a).__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
    assert kinds == {Point, CurveParams, Seed, CompatReport, FormalEndomorphism,
                     FunctionalEquationReport, MapCheckReport, JobSpec}


def test_alpha_seed_wrong_residue(f3):
    seed = Seed.alpha(parse_rational_function("x^2", f3))
    with pytest.raises(SeedError):
        seed.fraction()


def test_beta_seed_wrong_residue(f3):
    seed = Seed.beta(parse_rational_function("x", f3))
    with pytest.raises(SeedError):
        seed.fraction()


def test_beta_seed_deep_pole(f3):
    seed = Seed.beta(parse_rational_function("1/x^4", f3))
    with pytest.raises(SeedError):
        seed.fraction()


def test_zero_seed_is_valid(f3):
    assert Seed.alpha(parse_rational_function("0", f3)).fraction()[0].is_zero
    assert Seed.beta(parse_rational_function("0", f3)).fraction()[0].is_zero


def test_seed_takes_an_exact_polynomial_series(f3):
    poly = LaurentSeries.from_coeffs(f3, 0, [0, 1, 0, 0, 2])
    alpha = Seed.alpha(poly)
    assert alpha.source == parse_rational_function("2*x^4+x", f3)
    assert alpha.fraction() == (poly, LaurentSeries.monomial(f3, 0))
    beta = Seed.beta(LaurentSeries.monomial(f3, 2))
    assert beta.source == parse_rational_function("x^2", f3)
    assert Seed.alpha(LaurentSeries.zero(f3)).fraction()[0].is_zero


def test_seed_check_is_exact(f3, f9):
    # a/s = a s^2 / s^3 with s^3 in K[X^3]: the check reads a s^2 and
    # val a - val s, so an offending term past any precision is seen, and
    # it agrees with the terms of a long expansion
    with pytest.raises(SeedError, match="not = 1"):
        Seed.alpha(parse_rational_function("x+x^26", f3)).fraction()
    with pytest.raises(SeedError, match="not = 2"):
        Seed.beta(parse_rational_function("x^2+x^27", f3)).fraction()
    rng = random.Random(31001)
    rejected = 0
    for _ in range(300):
        field = rng.choice((f3, f9))
        kind = rng.choice(("alpha", "beta"))
        num = {e: rng.randrange(3) for e in rng.sample(range(8), rng.randint(1, 3))}
        den = {e: rng.randrange(1, 3) for e in rng.sample(range(7), rng.randint(1, 3))}
        text = f"({_poly_text(num)})/({_poly_text(den)})"
        seed = Seed(kind, parse_rational_function(text, field))
        series = seed.source.expand(200)
        residue, lowest = (1, 1) if kind == "alpha" else (2, -1)
        ok = in_residue_class(series, residue) and (series.is_zero or series.val >= lowest)
        if ok:
            seed.fraction()
        else:
            rejected += 1
            with pytest.raises(SeedError):
                seed.fraction()
    assert 50 < rejected < 290


def _poly_text(terms):
    return "+".join(f"{c}*x^{e}" for e, c in terms.items()) or "0"


@pytest.mark.parametrize("source", [
    lambda f: LaurentSeries.from_coeffs(f, 0, [0, 1], prec=20),  # finite precision
    lambda f: LaurentSeries.monomial(f, -1, 2),                   # negative valuation
    lambda f: LaurentSeries.zero(f, 20),
    lambda f: [0, 1],
])
def test_seed_refuses_what_is_not_an_exact_polynomial(f3, source):
    for make in (Seed.alpha, Seed.beta):
        with pytest.raises(SeedError):
            make(source(f3))


# ---- the linear relation between alpha and beta (the series oracle) -----------


def test_beta_from_alpha_vanishes_on_unit_curve(curve_a1b1, f3):
    beta = beta_from_alpha(curve_a1b1, S(f3, {1: 1}, 40))
    assert beta.is_zero


def test_beta_from_alpha_vanishes_b_zero(curve_am1b0, f3):
    beta = beta_from_alpha(curve_am1b0, S(f3, {1: 1}, 40))
    assert beta.is_zero


def test_beta_from_alpha_zero_seed_makes_pole(f3):
    curve = CurveParams(f3, A=1, B=0, c=1)
    beta = beta_from_alpha(curve, LaurentSeries.zero(f3, 40))
    assert beta.agrees_with(LaurentSeries.monomial(f3, -1, prec=38))


def test_alpha_from_beta_example_inverse_x(curve_am1b0, f3):
    alpha = alpha_from_beta(curve_am1b0, S(f3, {-1: 2}, 40))
    assert alpha.is_zero


def test_alpha_from_beta_gf9_golden(curve_gf9, f9):
    beta = parse_rational_function("x^2/(x^9+x^3-1)", f9).expand(40)
    alpha = alpha_from_beta(curve_gf9, beta)
    expected = parse_rational_function("x^10/(x^9+x^3-1)", f9).expand(alpha.prec)
    assert alpha.agrees_with(expected)


def test_alpha_from_beta_pole_with_nonzero_b(curve_gf9, f9):
    with pytest.raises(IncompatibleSeed):
        alpha_from_beta(curve_gf9, S(f9, {-1: 1}, 40))


def test_alpha_beta_round_trip_random(f3, f9):
    rng = random.Random(50021)
    for _ in range(200):
        field = f9 if rng.random() < 0.5 else f3
        b_val = rng.choice([e for e in field.elements() if not e.is_zero])
        curve = CurveParams(
            field,
            A=rng.choice([e for e in field.elements() if not e.is_zero]),
            B=b_val,
            c=rng.choice([e for e in field.elements() if not e.is_zero]),
        )
        terms = {3 * i + 1: rng.randrange(3) for i in range(rng.randint(0, 5))}
        alpha = S(field, terms, 36)
        beta = beta_from_alpha(curve, alpha)
        assert in_residue_class(beta, 2)
        assert beta.is_zero or beta.val >= 2
        back = alpha_from_beta(curve, beta)
        assert back.agrees_with(alpha)


# ---- psi and compatibility ------------------------------------------------------


def test_psi_zero_on_unit_curve(curve_a1b1, f3):
    alpha = S(f3, {1: 1}, 40)
    psi = compute_psi(curve_a1b1, alpha, beta_from_alpha(curve_a1b1, alpha))
    assert psi.is_zero


def test_psi_zero_b_zero(curve_am1b0, f3):
    alpha = S(f3, {1: 1}, 40)
    psi = compute_psi(curve_am1b0, alpha, beta_from_alpha(curve_am1b0, alpha))
    assert psi.is_zero


def test_psi_constant_on_gf9_curve(curve_gf9, f9):
    beta = parse_rational_function("x^2/(x^9+x^3-1)", f9).expand(48)
    alpha = alpha_from_beta(curve_gf9, beta)
    psi = compute_psi(curve_gf9, alpha, beta)
    assert psi.coefficient(0) == f9.one
    # the full psi agrees with the expansion of g^3 + g for the known
    # rational gamma part g
    g = parse_rational_function("(x^6+x^3+1)/(x^9+x^3+2)", f9)
    expected = (g ** 3 + g).expand(psi.prec)
    assert psi.agrees_with(expected)


def test_psi_residue_class_for_nonzero_b(f3, f9):
    rng = random.Random(50023)
    for _ in range(100):
        field = f9 if rng.random() < 0.5 else f3
        nonzero = [e for e in field.elements() if not e.is_zero]
        curve = CurveParams(field, A=rng.choice(nonzero), B=rng.choice(nonzero),
                            c=rng.choice(nonzero))
        alpha = S(field, {3 * i + 1: rng.randrange(3) for i in range(4)}, 30)
        psi = compute_psi(curve, alpha, beta_from_alpha(curve, alpha))
        assert in_residue_class(psi, 0)
        assert psi.is_zero or psi.val >= 0


def test_compatibility_roots_golden(curve_am1b0, curve_a1b1, f3):
    zero_psi = LaurentSeries.zero(f3, 30)
    rep = compatibility_check(curve_am1b0, zero_psi, zero_psi, zero_psi)
    assert rep.principal_part_ok
    assert {e.coeffs[0] for e in rep.gamma0_roots} == {0, 1, 2}
    rep = compatibility_check(curve_a1b1, zero_psi, zero_psi, zero_psi)
    assert {e.coeffs[0] for e in rep.gamma0_roots} == {0}


def test_compatibility_principal_part(curve_a1b1, f3):
    zero = LaurentSeries.zero(f3, 30)
    rep = compatibility_check(curve_a1b1, zero, zero, S(f3, {-3: 1}, 30))
    assert not rep.principal_part_ok
    assert rep.gamma0_roots == ()


def test_compatibility_wrong_residue(curve_a1b1, f3):
    zero = LaurentSeries.zero(f3, 30)
    rep = compatibility_check(curve_a1b1, zero, zero, S(f3, {1: 1}, 30))
    assert not rep.principal_part_ok


# On y^2 = x^3 + 2x + B over GF(3), c = 1, the linear relation gives the
# partner by hand: alpha = 2x+x^4 and B = 0 give beta = 1/x + x^2; beta = x^2
# and B = 1 give alpha = 2x - 2x^4; beta = -1/x and B = 0 give alpha = 0.
@pytest.mark.parametrize("B, kind, text, beta_minus1, alpha1", [
    (0, "beta", "-1/x", 2, 0),
    (0, "alpha", "2*x+x^4", 1, 2),
    (1, "alpha", "2*x+x^4", 0, 2),
    (1, "beta", "x^2", 0, 2),
])
def test_report_carries_the_x_minus_1_and_x_coefficients(f3, B, kind, text, beta_minus1, alpha1):
    curve = CurveParams(f3, A=2, B=B, c=1)
    seed = Seed(kind, parse_rational_function(text, f3))
    try:
        report, _ = construct_with_report(curve, seed, 32)
    except IncompatibleSeed as exc:
        report = exc.report
    assert (report.beta_minus1, report.alpha1) == (f3.from_int(beta_minus1), f3.from_int(alpha1))


def _exact_psi_cases():
    """Seeded random curves over GF(3^1..3^4), a third with B = 0 and c
    random, with alpha and beta seeds, polynomial or over a denominator in
    X^3 (X^9 included), beta seeds with or without a pole."""
    rng = random.Random(31003)
    for k in (1, 2, 3, 4):
        field = FieldParams(k)
        nonzero = [e for e in field.elements() if not e.is_zero]
        for i in range(60 if k <= 2 else 30):
            curve = CurveParams(field, A=rng.choice(nonzero),
                                B=field.zero if i % 3 == 0 else rng.choice(nonzero),
                                c=rng.choice(nonzero))
            kind = rng.choice(("alpha", "beta"))
            r = 1 if kind == "alpha" else 2
            num = S(field, {3 * j + r: rng.choice(nonzero) for j in range(rng.randint(0, 3))})
            den = S(field, {0: 1})
            if rng.random() < 0.5:
                step = rng.choice((3, 9))
                terms = {step * j: rng.choice(nonzero) for j in range(1, rng.randint(2, 3))}
                den = S(field, {0: rng.choice(nonzero), **terms})
            source = char3iso.RationalFunction(num, den)
            if kind == "beta" and rng.random() < 0.4:
                pole = rng.choice([curve.c * curve.c * curve.A, rng.choice(nonzero)])
                source = source + char3iso.RationalFunction(S(field, {0: pole}), S(field, {1: 1}))
            yield curve, Seed(kind, source)


def test_exact_psi_matches_the_series_oracle():
    # alpha + beta = n/q and psi = N/q^3 expand to the series pipeline's
    # partner sum and residual psi, and construct's report, decided on the
    # polynomials, is the one the series compatibility check gives
    compared = poles = incompatible = 0
    for curve, seed in _exact_psi_cases():
        try:
            alpha, beta = seed_parts(curve, seed, 48)
        except IncompatibleSeed:
            with pytest.raises(IncompatibleSeed, match="no alpha part"):
                isocore._exact_parts(curve, seed)
            incompatible += 1
            continue
        n, q, N = isocore._exact_parts(curve, seed)
        psi = compute_psi(curve, alpha, beta)
        assert psi.prec >= 40
        ab = alpha + beta
        assert n.divide(q, prec=ab.prec) == ab
        assert N.divide(q.cube(), prec=psi.prec) == psi
        try:
            report = construct_with_report(curve, seed, 32)[0]
        except IncompatibleSeed as exc:
            report = exc.report
        assert report == compatibility_check(curve, alpha, beta, psi)
        compared += 1
        poles += not psi.is_zero and psi.val < 0
    assert compared >= 120 and poles >= 10 and incompatible >= 5, (compared, poles, incompatible)


# ---- closed-form diagnostics ------------------------------------------------------


def test_closed_forms_branch_beta_zero(curve_am1b0, f3):
    alpha = S(f3, {1: 1}, 40)
    beta = beta_from_alpha(curve_am1b0, alpha)
    forms = closed_form_conditions(curve_am1b0, alpha, beta)
    assert forms.delta0 == f3.one
    assert forms.beta_minus1 == f3.zero
    assert forms.branch == "beta_zero"
    assert forms.pole_cubic_ok and forms.pole_cross_ok
    # predicted pole coefficient A/c^2 - A*delta0 matches the computed one
    c2 = curve_am1b0.c * curve_am1b0.c
    assert forms.beta_minus1 == curve_am1b0.A / c2 - curve_am1b0.A * forms.delta0


def test_closed_forms_branch_pole(curve_am1b0, f3):
    beta = S(f3, {-1: 2}, 40)
    alpha = alpha_from_beta(curve_am1b0, beta)
    forms = closed_form_conditions(curve_am1b0, alpha, beta)
    c2 = curve_am1b0.c * curve_am1b0.c
    assert forms.beta_minus1 == f3.from_int(-1)
    assert forms.beta_minus1 == c2 * curve_am1b0.A
    assert forms.alpha1 == f3.zero
    assert forms.alpha1 == (1 - curve_am1b0.c ** 4) / c2
    assert forms.branch == "beta_c2A"
    assert forms.pole_cubic_ok and forms.pole_cross_ok


def test_closed_forms_gf9_alpha1(curve_gf9, f9):
    beta = parse_rational_function("x^2/(x^9+x^3-1)", f9).expand(40)
    alpha = alpha_from_beta(curve_gf9, beta)
    forms = closed_form_conditions(curve_gf9, alpha, beta)
    assert forms.alpha1 == f9.zero
    assert forms.delta0 is None  # only reported for B = 0


def test_closed_forms_dichotomy_when_b_zero_succeeds(f3, f9):
    # whenever the pipeline succeeds with B = 0, the pole coefficient of
    # beta is forced to 0 or c^2 A: those are the roots of the cubic that
    # kills the x^-3 term of psi
    rng = random.Random(50047)
    succeeded = 0
    for _ in range(120):
        field = f9 if rng.random() < 0.5 else f3
        nonzero = [e for e in field.elements() if not e.is_zero]
        curve = CurveParams(field, A=rng.choice(nonzero), B=0,
                            c=rng.choice(nonzero))
        if rng.random() < 0.5:
            terms = {3 * i + 1: rng.randrange(3) for i in range(3)}
            seed_series = S(field, terms, 28)
            alpha, beta = seed_series, beta_from_alpha(curve, seed_series)
        else:
            terms = {-1: rng.randrange(3)}
            terms.update({3 * i + 2: rng.randrange(3) for i in range(2)})
            seed_series = S(field, terms, 28)
            beta, alpha = seed_series, alpha_from_beta(curve, seed_series)
        psi = compute_psi(curve, alpha, beta)
        assert psi == psi_by_formula(curve, alpha, beta)  # == compares val, cols and prec
        report = compatibility_check(curve, alpha, beta, psi)
        forms = closed_form_conditions(curve, alpha, beta)
        if report.principal_part_ok:
            succeeded += 1
            assert forms.branch in ("beta_zero", "beta_c2A")
            assert forms.pole_cubic_ok and forms.pole_cross_ok
        else:
            assert not (forms.pole_cubic_ok and forms.pole_cross_ok)
    assert succeeded > 0


# ---- the gamma fixed point ----------------------------------------------------------


def test_gamma_sparse_alternating_solution(f3):
    g = solve_gamma(f3.one, LaurentSeries.monomial(f3, 3), f3.zero, 244)
    expected = {3: 1, 9: 2, 27: 1, 81: 2, 243: 1}
    assert {e: c.coeffs[0] for e, c in g.nonzero_terms()} == expected


def test_gamma_constant_solution(f3):
    for k in solve_additive_cubic(f3.from_int(-1), f3.zero):
        g = solve_gamma(f3.from_int(-1), LaurentSeries.zero(f3, 40), k, 40)
        assert g.agrees_with(LaurentSeries.constant(f3, k, prec=40))


def test_gamma_gf9_golden(curve_gf9, f9):
    beta = parse_rational_function("x^2/(x^9+x^3-1)", f9).expand(136)
    alpha = alpha_from_beta(curve_gf9, beta)
    psi = compute_psi(curve_gf9, alpha, beta)
    g = solve_gamma(f9.one, psi, f9.from_int(2), 128)
    expected = parse_rational_function("(x^6+x^3+1)/(x^9+x^3+2)", f9).expand(128)
    assert g.agrees_with(expected)


def test_gamma_rejects_principal_part(f3):
    with pytest.raises(NonRegularPsi):
        solve_gamma(f3.one, LaurentSeries.monomial(f3, -3), f3.zero, 32)


def test_gamma_rejects_wrong_residue(f3):
    with pytest.raises(NonRegularPsi):
        solve_gamma(f3.one, LaurentSeries.monomial(f3, 4), f3.zero, 32)


def test_gamma_rejects_bad_initial(f3):
    with pytest.raises(BadInitial):
        solve_gamma(f3.one, LaurentSeries.zero(f3, 32), f3.one, 32)


def test_gamma_needs_a_finite_precision(f3):
    with pytest.raises(ValueError):
        solve_gamma(f3.one, LaurentSeries.monomial(f3, 3), f3.zero, INF)


def test_gamma_passes_cube_only_what_they_know(monkeypatch, f3):
    # gamma0 is gamma mod X^3, and a pass turns gamma mod X^m into gamma mod
    # X^3m: the passes cube series known to 3, 9, 27, 81, and the
    # substitution check cubes the result at psi's precision
    cubed = []
    real_cube = LaurentSeries.cube

    def recorded(s):
        cubed.append(s.prec)
        return real_cube(s)

    monkeypatch.setattr(LaurentSeries, "cube", recorded)
    g = solve_gamma(f3.one, LaurentSeries.monomial(f3, 3), f3.zero, 200)
    assert cubed == [3, 9, 27, 81, 200]
    assert {e: c.coeffs[0] for e, c in g.nonzero_terms()} == {3: 1, 9: 2, 27: 1, 81: 2}


def test_gamma_substitution_round_trip_random(f3, f9):
    rng = random.Random(50033)
    for _ in range(200):
        field = f9 if rng.random() < 0.5 else f3
        nonzero = [e for e in field.elements() if not e.is_zero]
        a = rng.choice(nonzero)
        terms = {3 * i: rng.randrange(3) for i in range(rng.randint(1, 8))}
        gamma = S(field, terms, 48)
        psi = gamma.cube() + gamma * a
        back = solve_gamma(a, psi, gamma.coefficient(0), 48)
        assert back.agrees_with(gamma)


GAMMA_FIELDS = [FieldParams(k) for k in range(1, 6)] + [FieldParams(7, (2, 2, 2, 2, 2, 1, 1, 1))]


@pytest.mark.parametrize("field", GAMMA_FIELDS, ids=lambda field: f"3^{field.degree}")
def test_gamma_fixed_point_matches_the_recurrence(field):
    rng = random.Random(f"gamma:{field.degree}")

    def element():
        return field.element([rng.randrange(3) for _ in range(field.degree)])

    for trial in range(40):
        a = element()
        while a.is_zero:
            a = element()
        # exact, cut short of a multiple of 3, or zero to its precision
        shape = ("exact", "cut", "zero")[trial % 3]
        if shape == "zero":
            psi = LaurentSeries.zero(field, rng.randint(1, 60))
        else:
            terms = {3 * n: element() for n in range(rng.randint(1, 25))}
            cut = 3 * rng.randint(1, 25) - rng.randint(1, 2)
            psi = LaurentSeries.from_terms(field, terms, INF if shape == "exact" else cut)
            root = element()  # make psi(0) = root^3 + A root, so that roots exist
            psi = psi - psi.coefficient(0) + root.frobenius() + a * root
        prec = rng.randint(1, 90)
        for gamma0 in solve_additive_cubic(a, psi.coefficient(0)):
            gamma = solve_gamma(a, psi, gamma0, prec)
            assert gamma.prec == min(prec, psi.prec)  # so never past psi's precision
            assert gamma.agrees_with(gamma_by_recurrence(a, psi, gamma0, prec))


@pytest.mark.parametrize("B, kind, seed", [(2, "beta", "x^2/(x^9+x^3-1)"),
                                           (1, "alpha", "x^7+x^4+x")])
def test_construct_makes_few_field_products(monkeypatch, f9, B, kind, seed):
    # only the constants are field products; every run stays in columns
    curve = CurveParams(f9, A=1, B=B, c=1)
    source = getattr(Seed, kind)(parse_rational_function(seed, f9))
    calls = []
    real_mul = FieldElement.__mul__

    def counted(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    assert construct(curve, source, 8192)
    assert len(calls) < 100


@pytest.mark.parametrize("B, kind, seed", [(2, "beta", "x^2/(x^9+x^3-1)"),
                                           (1, "alpha", "x^7+x^4+x")])
def test_construct_never_substitutes_a_series_in_full(monkeypatch, f9, B, kind, seed):
    # psi is N/q^4 and eta is checked through q^4 (gamma^3 + A gamma) = N:
    # construct builds no series left side c^2 (X^3+AX+B) (eta')^2, so it
    # squares no run as long as prec (an inverse squares its divisor,
    # 1/b = b^2 (1/b)^3, and those squarings are not counted)
    curve = CurveParams(f9, A=1, B=B, c=1)
    source = getattr(Seed, kind)(parse_rational_function(seed, f9))
    squared, inverting = [], []
    real_mul, real_inverse = kronecker._mul_cols, kronecker._inverse_cols

    def counted(field, a, b, n=None):
        if a is b and not inverting:
            squared.append(len(a[0]))
        return real_mul(field, a, b, n)

    def inverse(field, b, n):
        inverting.append(n)
        try:
            return real_inverse(field, b, n)
        finally:
            inverting.pop()

    def refused(*args):
        raise AssertionError("the series left side is on construct's path")

    monkeypatch.setattr(kronecker, "_mul_cols", counted)
    monkeypatch.setattr(kronecker, "_inverse_cols", inverse)
    monkeypatch.setattr(isocore, "_lhs", refused)
    monkeypatch.setattr(isocore, "_residual", refused)
    construct_with_report(curve, source, 8192)
    assert squared and max(squared) < 100


@pytest.mark.parametrize("field_degree, A, B, kind, seed, prec", [
    (2, 1, 2, "beta", "x^2/(x^9+x^3-1)", 512),
    (2, 1, 1, "alpha", "x^7+x^4+x", 512),
    (1, 2, 0, "beta", "-1/x", 64),
    (1, 2, 0, "alpha", "x", 64),
])
def test_construct_checks_eta_at_least_as_far_as_full_substitution(
        monkeypatch, field_degree, A, B, kind, seed, prec):
    # construct checks gamma through q^4 (gamma^3 + A gamma) = N, on every
    # coefficient of the eta it reports: a fault in gamma at the last
    # exponent that full substitution of that eta (eta' and all) reaches,
    # and one at the last exponent below prec, must both make it raise
    field = FieldParams(field_degree)
    curve = CurveParams(field, A=A, B=B, c=1)
    source = getattr(Seed, kind)(parse_rational_function(seed, field))
    eta = construct(curve, source, prec)[0].eta
    full = verify_functional_equation(curve, eta)
    assert full.ok and prec - 3 <= full.checked_prec <= prec
    real_solve = isocore.solve_gamma
    for last in (3 * ((full.checked_prec - 1) // 3), 3 * ((prec - 1) // 3)):
        fault = LaurentSeries.monomial(field, last, 1, prec)
        if last < full.checked_prec:
            assert verify_functional_equation(curve, eta + fault).first_bad_exponent == last
        monkeypatch.setattr(isocore, "solve_gamma", lambda *args: real_solve(*args) + fault)
        with pytest.raises(char3iso.VerificationFailed, match="defining equation"):
            construct(curve, source, prec)


# ---- functional equation and membership ------------------------------------------


def test_identity_map_satisfies_equation(curve_a1b1, f3):
    rep = verify_functional_equation(curve_a1b1, S(f3, {1: 1}, 40))
    assert rep.ok


def test_translate_fails_equation(curve_a1b1, f3):
    rep = verify_functional_equation(curve_a1b1, S(f3, {0: 1, 1: 1}, 40))
    assert not rep.ok
    assert rep.first_bad_exponent == 0
    assert not rep.first_bad_coefficient.is_zero


def test_translate_passes_on_b_zero_curve(curve_am1b0, f3):
    rep = verify_functional_equation(curve_am1b0, S(f3, {0: 1, 1: 1}, 40))
    assert rep.ok


def test_gf9_eta_expansion_passes(curve_gf9, f9):
    eta = parse_rational_function("(x^4+x^2+2*x+1)/(x^3+x+2)", f9).expand(64)
    rep = verify_functional_equation(curve_gf9, eta)
    assert rep.ok


def test_verify_rejects_deep_pole(curve_a1b1, f3):
    with pytest.raises(ValueError):
        verify_functional_equation(curve_a1b1, S(f3, {-2: 1}, 20))


def test_membership_goldens(curve_a1b1, curve_am1b0, f3):
    x = S(f3, {1: 1}, 40)
    zero = LaurentSeries.zero(f3, 40)
    one = LaurentSeries.constant(f3, 1, 40)
    rep = check_cubic_membership(curve_am1b0, x, zero, one)
    assert rep.ok
    rep = check_cubic_membership(curve_a1b1, x, zero, zero)
    assert rep.ok
    rep = check_cubic_membership(curve_a1b1, x, S(f3, {2: 1}, 40), zero)
    assert not rep.linear_ok


# ---- the full pipeline ---------------------------------------------------------------


def test_construct_translation_family(curve_am1b0, f3):
    sols = construct(curve_am1b0, Seed.alpha(parse_rational_function("x", f3)), 64)
    assert len(sols) == 3
    assert [str(s.gamma0) for s in sols] == ["0", "1", "2"]
    for c0, sol in zip((0, 1, 2), sols):
        assert sol.eta == S(f3, {0: c0, 1: 1}, 64)
        assert verify_functional_equation(curve_am1b0, sol.eta).ok
        parts = split(sol.eta)
        assert check_cubic_membership(
            curve_am1b0, parts.alpha, parts.beta, parts.gamma).ok


def test_construct_pole_family(curve_am1b0, f3):
    sols = construct(curve_am1b0, Seed.beta(parse_rational_function("-1/x", f3)), 64)
    assert len(sols) == 3
    for c0, sol in zip((0, 1, 2), sols):
        assert sol.eta == S(f3, {-1: 2, 0: c0}, 64)


def test_construct_unit_curve_single_solution(curve_a1b1, f3):
    sols = construct(curve_a1b1, Seed.alpha(parse_rational_function("x", f3)), 64)
    assert len(sols) == 1
    assert sols[0].eta == S(f3, {1: 1}, 64)


def test_construct_gf9_family(curve_gf9, f9):
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    sols = construct(curve_gf9, seed, 128)
    assert [str(s.gamma0) for s in sols] == ["2", "2+t", "2+2*t"]
    for sol in sols:
        assert sol.prec == 128
        assert verify_functional_equation(curve_gf9, sol.eta).ok
    # the mod-3 components of eta recover the seed data and its partner
    parts = split(sols[0].eta)
    assert parts.alpha == parse_rational_function(
        "x^10/(x^9+x^3-1)", f9).expand(128)
    assert parts.beta == parse_rational_function(
        "x^2/(x^9+x^3-1)", f9).expand(128)


def test_construct_incompatible_pole_seed(curve_gf9, f9):
    seed = Seed.beta(parse_rational_function("1/x", f9))
    with pytest.raises(IncompatibleSeed):
        construct(curve_gf9, seed, 32)


def test_pole_sign_gates_compatibility(curve_am1b0, f3):
    # on y^2 = x^3 - x only the pole coefficient c^2 A = -1 survives the
    # principal-part check; +1/x fails where -1/x succeeds
    good = construct(curve_am1b0,
                     Seed.beta(parse_rational_function("-1/x", f3)), 32)
    assert len(good) == 3
    with pytest.raises(IncompatibleSeed) as err:
        construct(curve_am1b0, Seed.beta(parse_rational_function("1/x", f3)), 32)
    assert not err.value.report.principal_part_ok


def test_verify_precision_cap(curve_am1b0, f3):
    eta = parse_rational_function("x", f3).expand(64)
    rep = verify_functional_equation(curve_am1b0, eta, prec=20)
    assert rep.ok
    assert rep.checked_prec == 20


def test_construct_no_root_seed(f3):
    # t^3 - t vanishes identically on GF(3), so with A = -1 only
    # psi(0) = 0 is solvable; psi(0) = c^2 B alpha1^2 - B = -1 here
    curve = CurveParams(f3, A=-1, B=1, c=1)
    seed = Seed.alpha(parse_rational_function("x^4", f3))
    with pytest.raises(IncompatibleSeed) as err:
        construct(curve, seed, 32)
    assert err.value.report is not None
    assert err.value.report.principal_part_ok
    assert err.value.report.gamma0_roots == ()


def test_construct_requires_min_precision(curve_a1b1, f3):
    with pytest.raises(ValueError):
        construct(curve_a1b1, Seed.alpha(parse_rational_function("x", f3)), 8)


def test_solutions_differ_by_kernel_constants(curve_gf9, f9):
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    sols = construct(curve_gf9, seed, 64)
    kernel = set(solve_additive_cubic(curve_gf9.A, f9.zero))
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            diff = sols[i].eta - sols[j].eta
            terms = list(diff.nonzero_terms())
            assert len(terms) == 1 and terms[0][0] == 0
            assert terms[0][1] in kernel


def test_construct_is_deterministic(curve_gf9, f9):
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    first = construct(curve_gf9, seed, 64)
    second = construct(curve_gf9, seed, 64)
    assert [s.eta for s in first] == [s.eta for s in second]
    assert [s.gamma0 for s in first] == [s.gamma0 for s in second]


def test_precision_honesty_across_working_precisions(curve_gf9, f9):
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    low = construct(curve_gf9, seed, 32)
    high = construct(curve_gf9, seed, 96)
    for lo, hi in zip(low, high):
        assert hi.eta.truncate(32) == lo.eta


def test_construct_random_seeds_all_verified(f3, f9):
    rng = random.Random(50041)
    built = 0
    for _ in range(60):
        field = f9 if rng.random() < 0.5 else f3
        nonzero = [e for e in field.elements() if not e.is_zero]
        curve = CurveParams(field, A=rng.choice(nonzero),
                            B=rng.choice(list(field.elements())),
                            c=rng.choice(nonzero))
        terms = {3 * i + 1: rng.randrange(3) for i in range(rng.randint(0, 3))}
        seed = Seed.alpha(_poly_rational(field, terms))
        try:
            sols = construct(curve, seed, 16)
        except IncompatibleSeed:
            continue
        built += len(sols)
        for sol in sols:
            assert verify_functional_equation(curve, sol.eta).ok
            parts = split(sol.eta)
            assert check_cubic_membership(
                curve, parts.alpha, parts.beta, parts.gamma).ok
    assert built > 0


def _poly_rational(field, terms):
    from char3iso import RationalFunction
    size = max(terms) + 1 if terms else 1
    coeffs = [0] * size
    for e, v in terms.items():
        coeffs[e] = v
    return RationalFunction.from_polynomial(LaurentSeries.from_coeffs(field, 0, coeffs))


# ---- one solve per seed: translates against the per-root pipeline ------------------


def _random_seed(rng, field, curve):
    elements = list(field.elements())
    if rng.random() < 0.5:
        terms = {3 * i + 1: rng.choice(elements) for i in range(rng.randint(1, 3))}
        return Seed.alpha(_poly_rational(field, terms))
    terms = {3 * i + 2: rng.choice(elements) for i in range(rng.randint(1, 3))}
    if curve.B.is_zero and rng.random() < 0.5:
        # the pole coefficients that can survive the principal-part check
        pole = rng.choice([field.zero, curve.c * curve.c * curve.A])
        return Seed.beta(_poly_rational(field, terms) + pole / _poly_rational(field, {1: 1}))
    return Seed.beta(_poly_rational(field, terms))


def _equivalence_cases():
    rng = random.Random(30303)
    for k in (1, 2, 3, 4, 5):
        field = FieldParams(k)
        nonzero = [e for e in field.elements() if not e.is_zero]
        for _ in range(40 if k <= 2 else 15):
            curve = CurveParams(field, A=rng.choice(nonzero),
                                B=rng.choice([field.zero, rng.choice(nonzero)]),
                                c=rng.choice(nonzero))
            yield curve, _random_seed(rng, field, curve), rng.choice((16, 24, 40))
    for n in _EXAMPLES:
        job, seed = _example_job(n)
        yield job.curve, seed, job.prec
    f9 = FieldParams(2)
    yield (CurveParams(f9, A=1, B=1, c=1),
           Seed.alpha(parse_rational_function("x^7+x^4+x", f9)), 64)


def test_translates_equal_the_per_root_pipeline():
    multi = rational = 0
    for curve, seed, prec in _equivalence_cases():
        try:
            expected = construct_per_root(curve, seed, prec)
        except IncompatibleSeed:
            with pytest.raises(IncompatibleSeed):
                construct(curve, seed, prec)
            continue
        sols = construct(curve, seed, prec)
        assert [(s.gamma0, s.eta) for s in sols] == expected
        bound, maps = _rational_forms(curve, prec, sols)
        rationals = [pade(s.eta, bound, bound) for s in sols]
        assert maps == [None if r is None else derive_map_pair(curve, r) for r in rationals]
        if len(sols) > 1:
            multi += 1
            rational += rationals[0] is not None
    assert multi >= 30 and rational >= 10, (multi, rational)


def test_injected_fault_raises_under_optimize():
    # python -O strips assert statements; the self-checks must still fire.
    script = textwrap.dedent("""
        import sys
        import char3iso.isocore as iso
        from char3iso import (CurveParams, FieldParams, LaurentSeries, Seed,
                              VerificationFailed, parse_rational_function)

        assert False, "assert statements are live: not running under -O"
        solve_gamma = iso.solve_gamma

        def corrupted(A, psi, gamma0, prec):
            return solve_gamma(A, psi, gamma0, prec) + LaurentSeries.monomial(A.field, 3)

        iso.solve_gamma = corrupted
        f9 = FieldParams(2)
        curve = CurveParams(f9, A=1, B=2, c=1)
        seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
        try:
            iso.construct(curve, seed, 32)
        except VerificationFailed as exc:
            print(exc)
            sys.exit(0)
        sys.exit("corrupted gamma was not caught")
    """)
    src = str(Path(char3iso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "defining equation" in result.stdout


def test_reported_prec_is_measured(f9):
    # n/q and psi are expanded to prec and gamma is known as far as psi,
    # so every solution is known to exactly prec, pole or no pole
    curve = CurveParams(f9, A=1, B=2, c=1)
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    assert [e.prec for e in construct(curve, seed, 40)] == [40, 40, 40]
    assert [e.eta.prec for e in construct(curve, seed, 40)] == [40, 40, 40]
    f3 = FieldParams(1)
    for A, B, kind, text in ((1, 0, "alpha", "x"), (2, 0, "beta", "-1/x")):
        curve = CurveParams(f3, A=A, B=B, c=1)
        sols = construct(curve, Seed(kind, parse_rational_function(text, f3)), 41)
        assert sols and all(e.prec == e.eta.prec == 41 for e in sols)


@pytest.mark.parametrize("prec", [512, 1024])
def test_construct_is_a_prefix_of_construct_at_double_precision(f9, prec):
    curve = CurveParams(f9, A=1, B=2, c=1)
    seed = Seed.beta(parse_rational_function("x^2/(x^9+x^3-1)", f9))
    short, long = construct(curve, seed, prec), construct(curve, seed, 2 * prec)
    assert [e.gamma0 for e in short] == [e.gamma0 for e in long]
    for s, l in zip(short, long):
        assert (s.prec, l.prec) == (prec, 2 * prec)
        assert l.eta.truncate(prec) == s.eta
