import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import char3iso
from char3iso import gf3field, kronecker
from char3iso.cli import build_parser, main
from char3iso.gf3field import DEFAULT_MODULI, FieldElement

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(text):
    pairs = []
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        pairs.append((key, value))
    return pairs


def record_keys(text):
    return {k for k, _ in records(text)}


def _cli_env():
    """The environment of a child interpreter that imports this char3iso."""
    src = str(Path(char3iso.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# ---- construct ---------------------------------------------------------------


def test_construct_gf9_family(capsys):
    code, out, _ = run(
        capsys, "construct", "--field", "3^2", "--modulus", "t^2+1",
        "--A", "1", "--B", "2", "--c", "1",
        "--seed-beta", "x^2/(x^9+x^3-1)", "--prec", "128",
    )
    assert code == 0
    assert "solutions: 3" in out
    assert "(x^4+x^2+2*x+1)/(x^3+x+2)" in out


def test_construct_translation_family(capsys):
    code, out, _ = run(capsys, "construct", "--A", "2", "--B", "0",
                       "--seed-alpha", "x")
    assert code == 0
    lines = out.splitlines()
    assert any("rational form: x" in ln for ln in lines)
    assert any("rational form: x+1" in ln for ln in lines)
    assert any("rational form: x+2" in ln for ln in lines)


def test_construct_seed_coeffs(capsys):
    code, out, _ = run(capsys, "construct", "--A", "2", "--B", "0",
                       "--seed-coeffs", "0,1", "--seed-kind", "alpha")
    assert code == 0
    assert "solutions: 3" in out


def test_construct_singular_curve_exits_4(capsys):
    code, _, err = run(capsys, "construct", "--A", "0", "--seed-alpha", "x")
    assert code == 4


def test_construct_zero_scale_exits_4(capsys):
    code, _, _ = run(capsys, "construct", "--A", "1", "--c", "0",
                     "--seed-alpha", "x")
    assert code == 4


def test_construct_parse_error_exits_3(capsys):
    code, _, _ = run(capsys, "construct", "--A", "1", "--seed-alpha", "2x")
    assert code == 3


@pytest.mark.parametrize("argv, text, offset, message", [
    (["construct", "--seed-coeffs"], "1,2, 3x", 6, "unexpected 'x'"),
    (["construct", "--seed-coeffs"], "1,\t t", 4, "'t' needs a field extension of degree >= 2"),
    (["verify", "--eta-coeffs"], "0,1,t*", 6, "expected a value, found 'end of input'"),
    (["verify", "--eta-coeffs"], " 1 ,  2/1", 7, "division is not allowed in a field constant"),
])
def test_coefficient_list_errors_count_from_the_start_of_the_list(capsys, argv, text, offset,
                                                                   message):
    field = "3^1" if "\t" in text else "3^2"
    code, out, err = run(capsys, argv[0], "--field", field, "--A", "1", "--B", "2",
                         argv[1], text)
    assert code == 3
    assert out == ""
    assert err == f"parse error: at offset {offset}: {message}\n"


@pytest.mark.parametrize("flag, text, offset", [
    ("--A", "\u00b2", 0),          # superscript two: isdigit, but int() rejects it
    ("--seed-alpha", "x^\u00b2", 2),
    ("--A", "\u0661", 0),          # Arabic-Indic one: isdigit, and int() reads 1
    ("--A", "\u3000\u00e9", 1),    # an ideographic space is 3 bytes but one character
])
def test_unicode_digits_are_not_integer_literals(capsys, flag, text, offset):
    args = {"--A": "1", "--seed-alpha": "x", flag: text}
    code, out, err = run(capsys, "construct", *[part for kv in args.items() for part in kv])
    assert code == 3
    assert out == ""
    assert err == f"parse error: at offset {offset}: unexpected character {text[offset]!r}\n"


@pytest.mark.parametrize("field", ["3^1_0", "3^\u0665", "3^+5", "3^ 5", "3^-1", "3^0", "3^"])
def test_field_degree_is_a_positive_integer_in_ascii_digits(capsys, field):
    # int() reads '1_0' as 10, the Arabic-Indic five as 5, '+5' and ' 5' as 5
    code, out, err = run(capsys, "construct", "--field", field, "--A", "1", "--seed-alpha", "x")
    assert (code, out) == (3, "")
    assert err == "parse error: at offset 2: field degree must be a positive integer\n"


def test_field_degree_past_the_int_digit_limit_is_a_parse_error():
    # int() refuses a string of over 4,300 digits with a ValueError
    argv = ["construct", "--field", "3^" + "1" * 5000, "--A", "1", "--seed-alpha", "x"]
    proc = subprocess.run([sys.executable, "-m", "char3iso.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "parse error: at offset 2: field degree is too large\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["construct", "--A", "1", "--seed-alpha", "x", "--prec", "\u0666\u0664"],
    ["construct", "--A", "1", "--seed-alpha", "x", "--prec", "6_4"],
    ["construct", "--A", "1", "--seed-alpha", "x", "--prec", "+64"],
    ["identify", "--A", "1", "--fx", "x", "--fy-factor", "1", "--max-scalar", "1_0"],
    ["example", "\u0661"],
], ids=["prec-arabic-indic", "prec-underscore", "prec-plus", "max-scalar-underscore",
        "example-arabic-indic"])
def test_integer_arguments_are_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"invalid int value: {argv[-1]!r}\n")


# 5,000 digits: more than int() reads from a string, and 2 (mod 3) and 7 (mod 8)
LONG = "1" * 5000


@pytest.mark.parametrize("field, long, short", [
    ("3^1", LONG, "2"),                      # a literal is its digit sum mod 3
    ("3^2", "t^" + LONG, "t^7"),             # t^e = t^((e-1) mod 8 + 1) in GF(9)
    ("3^2", "1+0^8" + "0" * 4999, "1"),      # e = 0 (mod 8) reads as 8, not 0: 0^e = 0
    ("3^2", "(1+t)^" + LONG, "(1+t)^7"),
], ids=["literal", "power-of-t", "power-of-zero", "power-of-sum"])
def test_long_numbers_in_field_constants(capsys, field, long, short):
    expected = run(capsys, "construct", "--field", field, "--A", short, "--seed-alpha", "x")
    assert expected[0] == 0
    assert run(capsys, "construct", "--field", field, "--A", long, "--seed-alpha", "x") == expected
    seed = run(capsys, "construct", "--field", field, "--A", "1", "--seed-alpha", f"x+({long})*x^2")
    assert seed == run(capsys, "construct", "--field", field, "--A", "1",
                       "--seed-alpha", f"x+({short})*x^2")


@pytest.mark.parametrize("flag, text", [
    ("--seed-alpha", "x^99999999999"),    # squared dense polynomials until memory ran out
    ("--seed-alpha", "x^" + LONG),        # int() refused the exponent
    ("--seed-alpha", "x^65537"),
    ("--seed-beta", "(1/x^2)^32769"),
    ("--modulus", "t^99999999999+t+2"),
], ids=["eleven-digits", "long-exponent", "x^65537", "pole", "modulus"])
def test_powers_in_x_above_the_degree_cap_are_parse_errors(capsys, flag, text):
    seed = [] if flag.startswith("--seed") else ["--seed-alpha", "x"]
    code, out, err = run(capsys, "construct", "--A", "1", *seed, flag, text)
    assert (code, out) == (3, "")
    assert err == f"parse error: at offset {text.rindex('^')}: power of degree above 65536\n"


@pytest.mark.parametrize("flag, text, offset", [
    ("--seed-alpha", "x^65536*x", 7),
    ("--seed-beta", "1/x+x^65536", 3),
    ("--seed-alpha", "x^32768/(1/x^32769)", 7),
])
def test_values_in_x_above_the_degree_cap_are_parse_errors(capsys, flag, text, offset):
    code, out, err = run(capsys, "construct", "--A", "1", flag, text)
    assert (code, out) == (3, "")
    assert err == f"parse error: at offset {offset}: value of degree above 65536\n"


@pytest.mark.parametrize("flag", ["--A", "--seed-alpha", "--modulus"])
def test_nesting_past_the_depth_cap_is_a_parse_error(capsys, flag):
    args = {"--A": "1", "--seed-alpha": "x", flag: "(" * 260 + "1" + ")" * 260}
    code, out, err = run(capsys, "construct", *[part for kv in args.items() for part in kv])
    assert (code, out) == (3, "")
    assert err == "parse error: at offset 100: parentheses nested deeper than 100\n"


def test_construct_incompatible_seed_exits_2(capsys):
    code, _, _ = run(capsys, "construct", "--field", "3^1", "--A", "1",
                     "--B", "2", "--seed-beta", "1/x")
    assert code == 2


@pytest.mark.parametrize("prec", ["16", "32"])
@pytest.mark.parametrize("flag, seed, message", [
    ("--seed-alpha", "x+x^26", "alpha seed has exponents not = 1 (mod 3)"),
    ("--seed-beta", "x^2+x^27", "beta seed has exponents not = 2 (mod 3)"),
])
def test_seed_check_does_not_depend_on_prec(capsys, prec, flag, seed, message):
    # the offending term lies past prec 16 and its working precision: the
    # seed is checked exactly, not on its expansion
    for fmt in ("text", "records"):
        code, out, err = run(capsys, "construct", "--A", "1", "--B", "1", flag, seed,
                             "--prec", prec, "--format", fmt)
        assert (code, out, err) == (2, "", f"invalid seed: {message}\n")


def test_construct_records_without_a_report_are_records(capsys):
    # the partner of a beta seed fails before psi exists, so there is no
    # report: records mode still prints only key=value lines
    argv = ["construct", "--A", "1", "--B", "1", "--seed-beta", "1/x"]
    code, out, _ = run(capsys, *argv, "--format", "records")
    assert code == 2
    assert all(re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*=.*", line) for line in out.splitlines())
    pairs = dict(records(out))
    assert pairs["command"] == "construct" and pairs["seed_kind"] == "beta"
    assert pairs["seed"] == "(1)/(x)" and pairs["status"] == "incompatible"
    assert pairs["reason"] == "beta seed leaves a term below X^1; no alpha part exists"
    assert pairs["num_solutions"] == "0"
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == f"incompatible seed: {pairs['reason']}\n"


def test_construct_bad_precision_exits_3(capsys):
    code, _, _ = run(capsys, "construct", "--A", "1", "--seed-alpha", "x",
                     "--prec", "4")
    assert code == 3


def test_construct_records_schema(capsys):
    code, out, _ = run(
        capsys, "construct", "--A", "2", "--B", "0", "--seed-alpha", "x",
        "--format", "records",
    )
    assert code == 0
    keys = record_keys(out)
    required = {"command", "field", "modulus", "A", "B", "c", "prec",
                "seed_kind", "seed", "status", "psi0", "principal_part_ok",
                "beta_minus1", "alpha1", "num_solutions", "solution",
                "gamma0", "eta_coeffs", "certified_prec", "rational",
                "y_factor"}
    assert required <= keys


def test_construct_records_per_solution_blocks(capsys):
    _, out, _ = run(
        capsys, "construct", "--A", "2", "--B", "0", "--seed-alpha", "x",
        "--format", "records",
    )
    pairs = records(out)
    assert pairs.count(("solution", "0")) == 1
    assert pairs.count(("solution", "2")) == 1
    assert sum(1 for k, _ in pairs if k == "gamma0") == 3


# ---- verify ---------------------------------------------------------------------


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "x")
    assert code == 0
    assert out.endswith("\nfunctional equation holds exactly\n")


def test_verify_translate_fails(capsys):
    code, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "x+1")
    assert code == 1
    assert "x^0" in out


def test_verify_pole_map(capsys):
    code, _, _ = run(capsys, "verify", "--A", "2", "--B", "0",
                     "--eta", "(-1)/x")
    assert code == 0


def test_verify_parse_error(capsys):
    code, _, _ = run(capsys, "verify", "--A", "1", "--eta", "x+")
    assert code == 3


def test_verify_double_pole_text(capsys):
    code, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "1/x^2")
    assert code == 1
    assert out == "FAIL: eta has a pole of order greater than one\n"


def test_verify_double_pole_records(capsys):
    code, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "1/x^2",
                       "--format", "records")
    assert code == 1
    assert records(out) == [
        ("command", "verify"), ("field", "3^1"), ("modulus", "t"), ("A", "1"),
        ("B", "1"), ("c", "1"), ("prec", "64"), ("eta", "(1)/(x^2)"),
        ("status", "fail"), ("reason", "eta has a pole of order greater than one"),
    ]


def test_verify_records_schema(capsys):
    _, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "x+1",
                    "--format", "records")
    keys = record_keys(out)
    required = {"command", "field", "modulus", "A", "B", "c", "prec", "eta",
                "status", "checked_prec", "first_bad_exponent",
                "first_bad_coefficient"}
    assert required <= keys
    code, out, _ = run(capsys, "verify", "--A", "1", "--B", "1", "--eta", "x",
                       "--format", "records")
    assert code == 0
    assert records(out)[-4:] == [("status", "pass"), ("checked_prec", "inf"),
                                 ("first_bad_exponent", "none"),
                                 ("first_bad_coefficient", "none")]


# construct of the alpha seed 2*x on y^2 = x^3 + 2x + 1 at --prec 64 prints
# this form: it agrees with the true solution below x^81, so a series check
# to --prec 64 passed it
FALSE_GF3_FORM = "(x^29+2*x^28+x^27+x^11+2*x^10+x^9+x^5+2*x^4+2*x^2+2*x)/(x^2+2*x+1)"


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("prec", ["16", "64", "200", "8192"])
def test_verify_rejects_the_false_gf3_form_at_every_prec(capsys, prec, fmt):
    code, out, _ = run(capsys, "verify", "--field", "3^1", "--A", "2", "--B", "1", "--c", "1",
                       "--eta", FALSE_GF3_FORM, "--prec", prec, "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[-1] == "FAIL at x^81: residual coefficient 2"
    else:
        assert records(out)[-6:] == [
            ("prec", prec), ("eta", FALSE_GF3_FORM), ("status", "fail"),
            ("checked_prec", "inf"), ("first_bad_exponent", "81"),
            ("first_bad_coefficient", "2")]


# ---- identify ---------------------------------------------------------------------


def test_identify_scalar_two(capsys):
    code, out, _ = run(
        capsys, "identify", "--field", "3^2", "--A", "1", "--B", "2",
        "--fx", "(x^4+x^2+2*x+1)/(x^3+x+2)",
        "--fy-factor=-(x^6+2*x^4+x^3+x^2+x)/(x^6+2*x^4+x^3+x^2+x+1)",
        "--max-scalar", "10",
    )
    assert code == 0
    assert "scalar: 2" in out


def test_identify_identity(capsys):
    code, out, _ = run(capsys, "identify", "--A", "2", "--B", "0",
                       "--fx", "x", "--fy-factor", "1")
    assert code == 0
    assert "scalar: 1" in out


def test_identify_shift_has_no_scalar(capsys):
    code, out, _ = run(capsys, "identify", "--A", "2", "--B", "0",
                       "--fx", "x+1", "--fy-factor", "1")
    assert code == 0
    assert "scalar: none" in out
    assert "homomorphism on rational points: True" in out


def _identify_counting_additions(capsys, monkeypatch, *argv):
    # runs identify with curve._add counted; the walk adds twice for each
    # pair it compares, a sum of points and a sum of images, so every
    # addition past 2 * pairs_checked is the scalar search's
    import char3iso.cli as cli
    import char3iso.curve as curve

    add, check_map = curve._add, cli.check_map
    calls, reports = [], []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 1000, "the scalar search ran past the group order"
        return add(*args)

    def reported(*args):
        reports.append(check_map(*args))
        return reports[-1]

    monkeypatch.setattr(curve, "_add", counted)
    monkeypatch.setattr(cli, "check_map", reported)
    code, out, _ = run(capsys, "identify", *argv)
    (report,) = reports
    return code, out, report, len(calls) - 2 * report.pairs_checked


def test_identify_scalar_search_stops_at_the_group_order(capsys, monkeypatch):
    # y^2 = x^3 - x over GF(3) has 4 points, so 4 kills each of them and no
    # scalar above 4 can be the first to match: a search up to 10^8 ends
    # after a few dozen additions
    code, out, report, search = _identify_counting_additions(
        capsys, monkeypatch, "--A", "2", "--B", "0", "--fx", "x+1", "--fy-factor", "1",
        "--max-scalar", "100000000")
    assert code == 0
    assert report.homomorphism_ok and report.point_count == 4
    assert 0 < search <= len(report.generators) * report.point_count
    assert out.endswith("scalar: none (no multiplication map matches pointwise)\n")


def test_identify_scalar_adds_on_the_generators_only(capsys, monkeypatch):
    # the Frobenius of GF(3^5) acts on the cyclic group of 244 points as
    # [217]: with --max-scalar 1000000 the search adds only the multiples
    # of the generators, at most |S| * #E times, not a multiple of each point
    code, out, report, search = _identify_counting_additions(
        capsys, monkeypatch, "--field", "3^5", *IDENTIFY_NEGATIVE["frobenius"],
        "--max-scalar", "1000000")
    assert code == 0
    assert report.homomorphism_ok and report.point_count == 244
    assert 0 < search <= len(report.generators) * report.point_count
    assert out.endswith("scalar: 217\n")


def test_identify_translation_by_two_torsion(capsys):
    # P -> P + (0, 0) on y^2 = x^3 - x: fx = (x^3 - x)/x^2 - x = -1/x and
    # fy = (0 - fx)/x = 1/x^2; every image is on the curve, but a
    # translation commutes with no addition and fixes no scalar
    code, out, _ = run(capsys, "identify", "--A", "2", "--B", "0",
                       "--fx=-1/x", "--fy-factor=1/x^2", "--format", "records")
    assert code == 0
    pairs = dict(records(out))
    assert pairs["points"] == "4"
    assert pairs["all_on_curve"] == "true"
    assert pairs["homomorphism"] == "false"
    assert pairs["scalar"] == "none"


def test_identify_field_above_the_enumeration_cap_exits_3(capsys):
    code, out, err = run(capsys, "identify", "--field", "3^11", "--modulus", "t^11+t^2+2",
                         "--A", "1", "--fx", "x", "--fy-factor", "1")
    assert code == 3
    assert out == ""
    assert err == "usage error: field order 177147 exceeds 59049\n"


@pytest.mark.parametrize("max_scalar", ["0", "-5"])
def test_identify_max_scalar_below_one_exits_3(capsys, max_scalar):
    code, out, err = run(capsys, "identify", "--A", "1", "--fx", "x", "--fy-factor", "1",
                         f"--max-scalar={max_scalar}")
    assert code == 3
    assert out == ""
    assert err == "parse error: at offset 0: max-scalar must be at least 1\n"


# The parent of the single-pass check wrote these, on the benchmark's
# identify-mul2 job: the doubling map on the 244 points of GF(3^5).
IDENTIFY_MUL2 = [
    "identify", "--field", "3^5", "--A", "1", "--B", "2",
    "--fx", "(x^4+x^2+(2)*x+(1))/(x^3+x+(2))",
    "--fy-factor=((2)*x^6+x^4+(2)*x^3+(2)*x^2+(2)*x)/(x^6+(2)*x^4+x^3+x^2+x+(1))",
]


# Maps with no scalar at GF(3^5), written by the parent of the log layer:
# the Frobenius, the negated translation by (0, 0), and a map off the curve.
# In the text transcripts only the "(N pairs)" line has changed since: the
# exact walk compares 244, 244 and 4 pairs where the sample counted 1000.
IDENTIFY_NEGATIVE = {
    "frobenius": ["--A", "1", "--B", "2", "--fx", "x^3", "--fy-factor", "x^3+x+2"],
    "translation": ["--A", "2", "--B", "0", "--fx", "2/x", "--fy-factor", "2/x^2"],
    "offcurve": ["--A", "1", "--B", "2", "--fx", "x+1", "--fy-factor", "1"],
}


@pytest.mark.parametrize("name, argv, fmt", [
    pytest.param(name, argv, fmt, id=fmt if name == "mul2" else f"{name}-{fmt}")
    for name, argv in [("mul2", IDENTIFY_MUL2[3:]), *IDENTIFY_NEGATIVE.items()]
    for fmt in ("records", "text")
])
def test_identify_mul2_matches_transcript(capsys, name, argv, fmt):
    code, out, _ = run(capsys, "identify", "--field", "3^5", *argv, "--format", fmt)
    assert code == 0
    assert out == (DATA / f"identify_{name}_gf35.{fmt}.txt").read_text()


def test_identify_mul2_matches_transcript_on_gf38(capsys):
    # written by packed arithmetic alone, before the log tables; CI also
    # diffs this one and the GF(3^10) one under python -O
    code, out, _ = run(capsys, *IDENTIFY_MUL2[:2], "3^8", *IDENTIFY_MUL2[3:],
                       "--format", "records")
    assert code == 0
    assert out == (DATA / "identify_mul2_gf38.records.txt").read_text()


def test_identify_mul2_checks_each_point_once(capsys, monkeypatch):
    # check_map puts each enumerated point and then each image, as logs,
    # through the one curve check and adds with no further check: two
    # checks a point
    import char3iso.cli as cli
    import char3iso.curve as curve

    checked = []
    off_curve, check_map = curve._off_curve, curve.check_map

    def counted(logs, cubic, points):
        checked.extend(points)
        return off_curve(logs, cubic, points)

    def measured(*args):
        start = len(checked)
        report = check_map(*args)
        within.extend(checked[start:])
        calls.append((args, report))
        return report

    within, calls = [], []
    monkeypatch.setattr(curve, "_off_curve", counted)
    monkeypatch.setattr(cli, "check_map", measured)
    code, _, _ = run(capsys, *IDENTIFY_MUL2, "--format", "records")
    assert code == 0
    [((e, fx, fy, _), report)] = calls
    assert report.point_count == 244
    logs, _, cubic = curve._log_curve(e)
    points = curve._enumerate(logs, cubic)
    assert within == points + curve._map_points(logs, cubic, e, fx, fy, points)


def test_identify_records_schema(capsys):
    _, out, _ = run(capsys, "identify", "--A", "2", "--B", "0",
                    "--fx", "x", "--fy-factor", "1", "--format", "records")
    keys = record_keys(out)
    required = {"command", "field", "modulus", "A", "B", "c", "prec", "fx",
                "fy_factor", "points", "all_on_curve", "homomorphism",
                "scalar"}
    assert required <= keys


# ---- worked examples ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_example_exit_codes(capsys, n):
    code, out, _ = run(capsys, "example", str(n))
    assert code == 0
    assert "ok" in out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_example_golden_transcripts(capsys, n):
    code, out, _ = run(capsys, "example", str(n), "--format", "records")
    assert code == 0
    expected = (DATA / f"example{n}.records.txt").read_text()
    assert out == expected


# Written by the per-example branches that the table of examples replaced.
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_example_text_transcripts(capsys, n):
    code, out, _ = run(capsys, "example", str(n))
    assert code == 0
    assert out == (DATA / f"example{n}.text.txt").read_text()


# Transcripts written by the schoolbook coefficient loops, before the
# Kronecker kernel replaced them: one rational seed (Pade certifies) and one
# non-rational seed (Pade runs its full Euclid and declines).
SEEDS_2048 = {
    "mul2": ["--B=2", "--seed-beta=x^2/(x^9+x^3-1)"],
    "nonrational": ["--B=1", "--seed-alpha=x^7+x^4+x"],
}


@pytest.mark.parametrize("name", SEEDS_2048)
def test_construct_prec_2048_matches_schoolbook_transcript(capsys, name):
    code, out, _ = run(capsys, "construct", "--field", "3^2", "--A=1", "--c=1",
                       *SEEDS_2048[name], "--prec", "2048", "--format", "records")
    assert code == 0
    assert out == (DATA / f"construct_{name}_prec2048.records.txt").read_text()


# The same seeds over GF(3^7), written while inverses still took Newton's
# iteration: the Frobenius and the fold act on seven digit columns.
@pytest.mark.parametrize("name", SEEDS_2048)
def test_construct_gf37_prec_2048_matches_transcript(capsys, name):
    code, out, _ = run(capsys, "construct", "--field", "3^7", "--A=1", "--c=1",
                       *SEEDS_2048[name], "--prec", "2048", "--format", "records")
    assert code == 0
    assert out == (DATA / f"construct_{name}_gf37_prec2048.records.txt").read_text()


# Written while the kernel inverted every divisor at its full length: beta's
# denominator lies in X^9, so the divisors of the seed expansion and of
# Pade's Euclid are series in X^3 (and often in X^9).
def test_construct_x9_denominator_prec_2048_matches_transcript(capsys):
    code, out, _ = run(capsys, "construct", "--field", "3^2", "--A=1", "--B=2", "--c=1",
                       "--seed-beta=x^2/(x^27+x^9-1)", "--prec", "2048", "--format", "records")
    assert code == 0
    assert out == (DATA / "construct_x9den_prec2048.records.txt").read_text()


# Written by the printer that formatted eta_coeffs= and certified_prec= for
# the text output too, where neither is shown.
def test_construct_prec_2048_text_transcript(capsys):
    code, out, _ = run(capsys, "construct", "--field", "3^2", "--A=1", "--c=1",
                       *SEEDS_2048["mul2"], "--prec", "2048")
    assert code == 0
    assert out == (DATA / "construct_mul2_prec2048.text.txt").read_text()


# Written by the printer that made a FieldElement and its text for every
# coefficient of eta before the preview took the first eleven terms.
def test_construct_nonrational_prec_2048_text_transcript(capsys):
    code, out, _ = run(capsys, "construct", "--field", "3^2", "--A=1", "--c=1",
                       *SEEDS_2048["nonrational"], "--prec", "2048")
    assert code == 0
    assert "no rational form within degree 1022" in out
    assert out == (DATA / "construct_nonrational_prec2048.text.txt").read_text()


# The sha256 of the doubling-map records at --prec 8192 that CI pins.
PREC_8192_DIGEST = "871f86b86433d48ea0086634a7468d4cddfdf5b6c2e77c032ba81efb61462586"


def test_eta_rows_format_each_field_value_once(capsys, monkeypatch):
    # the 15,000-odd eta_coeffs= terms at --prec 8192 take at most q = 9
    # distinct values: each field's name table formats each value once, and
    # the rows are written from packed ints with no FieldElement per term
    formatted, made = [], []
    missing, from_packed = gf3field._Names.__missing__, FieldElement._from_packed

    def format_once(table, packed):
        formatted.append((table, packed))  # keeps the table alive, so ids stay distinct
        return missing(table, packed)

    def counting(field, packed):
        made.append(packed)
        return from_packed(field, packed)

    monkeypatch.setattr(gf3field._Names, "__missing__", format_once)
    monkeypatch.setattr(FieldElement, "_from_packed", staticmethod(counting))
    monkeypatch.setattr(gf3field, "_from_packed", counting)
    code, out, _ = run(capsys, "construct", "--field", "3^2", "--A=1", "--c=1",
                       *SEEDS_2048["mul2"], "--prec", "8192", "--format", "records")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PREC_8192_DIGEST
    terms = sum(len(line.split()) for line in out.splitlines() if line.startswith("eta_coeffs="))
    assert terms > 15_000 and len(made) < terms // 10
    per_table = Counter(id(table) for table, _ in formatted)
    assert len({(id(table), packed) for table, packed in formatted}) == len(formatted)
    assert max(per_table.values(), default=0) <= 9  # an earlier test may fill the table


# ---- one parser per process --------------------------------------------------


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# Constructs over several fields interleaved, one GF(9) modulus spelled out:
# state of one field that leaks into the next call, or an explicit modulus
# that does not name the same field as the default, shows as a difference.
RUNS_IN_TURN = [
    ["construct", "--field", "3^2", "--A=1", *SEEDS_2048["mul2"], "--prec", "32",
     "--format", "records"],
    ["construct", "--field", "3^1", "--A=2", "--seed-alpha=x^4+x", "--prec", "24"],
    ["construct", "--field", "3^2", "--A=1", *SEEDS_2048["mul2"], "--format", "records"],
    ["construct", "--field", "3^3", "--A=2+2*t+2*t^2", "--B=2+2*t+2*t^2", "--c=1+t^2",
     "--seed-alpha=(t^2)*x^10+(1+t)*x^7+(2+2*t+t^2)*x^4+(t)*x", "--prec", "16",
     "--format", "records"],
    ["construct", "--field", "3^2", "--modulus", "t^2+1", "--A=1", *SEEDS_2048["mul2"],
     "--prec", "32", "--format", "records"],
    ["construct", "--field", "3^4", "--A=t", "--B=1", "--seed-beta=x^2/(x^9+x^3-1)",
     "--prec", "48"],
    ["construct", "--field", "3^2", "--A=1", *SEEDS_2048["nonrational"], "--prec", "40"],
    ["construct", "--field", "3^5", "--A=1+t+2*t^2+t^3", "--B=2*t^2+2*t^4",
     "--c=t^2+t^3+t^4", "--seed-alpha=(1+t+2*t^2+2*t^3)*x^10+(2+2*t+t^2)*x^7+(t)*x^4"
     "+(1+t+2*t^2+t^4)*x", "--prec", "16", "--format", "records"],
    ["identify", "--field", "3^2", "--A", "1", "--B", "2",
     "--fx", "(x^4+x^2+2*x+1)/(x^3+x+2)",
     "--fy-factor=(2*x^6+x^4+2*x^3+2*x^2+2*x)/(x^6+2*x^4+x^3+x^2+x+1)"],
    ["example", "4"],
]


def test_commands_run_in_one_process_as_each_runs_alone(capsys):
    # the parser is shared: no default or func of one call may reach the next
    in_turn = [run(capsys, *argv) for argv in RUNS_IN_TURN]
    assert "prec=32" in in_turn[0][1].splitlines()
    assert "prec=64" in in_turn[2][1].splitlines()
    assert in_turn[4] == in_turn[0]  # t^2+1 is the default modulus of GF(9)
    alone = [subprocess.run([sys.executable, "-m", "char3iso.cli", *argv], env=_cli_env(),
                            capture_output=True, text=True, timeout=120)
             for argv in RUNS_IN_TURN]
    assert in_turn == [(p.returncode, p.stdout, p.stderr) for p in alone]


def test_a_second_identical_run_builds_no_field_data(capsys, monkeypatch):
    # a field is built, and its modulus tested, once per process, and each
    # inverse and multiplication matrix is made once per field and element
    built = Counter()

    def counting(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gf3field, "_FIELDS", {})  # so the first run builds its fields
    monkeypatch.setattr(gf3field.FieldParams, "__init__",
                        counting("field", gf3field.FieldParams.__init__))  # runs Rabin's test
    monkeypatch.setattr(gf3field, "_extended_euclid",
                        counting("inverse", gf3field._extended_euclid))
    monkeypatch.setattr(kronecker, "_multiplication_rows",
                        counting("matrix", kronecker._multiplication_rows))
    argv = ["construct", "--field", "3^2", "--modulus", "t^2+1", "--A=1", *SEEDS_2048["mul2"],
            "--prec", "64", "--format", "records"]
    first = run(capsys, *argv)
    assert first[0] == 0 and set(built) == {"field", "inverse", "matrix"}
    built.clear()
    assert run(capsys, *argv) == first
    assert not built


# The modulus= header lines the hand-written formatter printed, one per
# degree of the default table, and one for a modulus given on the command line.
MODULUS_HEADERS = {
    ("3^1", None): "t", ("3^2", None): "t^2+1", ("3^3", None): "t^3+2*t+1",
    ("3^4", None): "t^4+t+2", ("3^5", None): "t^5+2*t+1", ("3^6", None): "t^6+t+2",
    ("3^7", None): "t^7+t^2+2", ("3^8", None): "t^8+t^2+2",
    ("3^9", None): "t^9+2*t^3+t^2+1", ("3^10", None): "t^10+2*t^2+1",
    ("3^2", "t^2 + 2*t + 2"): "t^2+2*t+2",
}


def test_modulus_header_for_every_default_degree(capsys):
    assert {int(k[2:]) for k, m in MODULUS_HEADERS if m is None} == set(DEFAULT_MODULI)
    for (field, modulus), header in MODULUS_HEADERS.items():
        given = [] if modulus is None else ["--modulus", modulus]
        code, out, _ = run(capsys, "verify", "--field", field, *given, "--A", "1",
                           "--eta", "x", "--prec", "16", "--format", "records")
        assert code == 0
        assert ("modulus", header) in records(out)


# ---- usage ------------------------------------------------------------------------


def test_custom_modulus_round_trip(capsys):
    code, out, _ = run(
        capsys, "construct", "--field", "3^2", "--modulus", "t^2+2*t+2",
        "--A", "1", "--B", "1", "--seed-alpha", "x", "--format", "records",
    )
    assert code in (0, 2)
    assert "modulus=t^2+2*t+2" in out


def test_reducible_modulus_exits_3(capsys):
    # t^2 + 2 = (t + 1)(t + 2)
    code, out, err = run(capsys, "construct", "--field", "3^2", "--modulus", "t^2+2",
                         "--A", "1", "--seed-alpha", "x")
    assert code == 3
    assert out == ""
    assert "parse error" in err and "reducible" in err


def test_non_monic_modulus_exits_3(capsys):
    code, out, err = run(capsys, "construct", "--field", "3^2", "--modulus", "2*t^2+1",
                         "--A", "1", "--seed-alpha", "x")
    assert code == 3
    assert out == ""
    assert "parse error" in err and "monic" in err


@pytest.mark.parametrize("modulus, offset", [("x^2+1", 0), ("t^2+t*x", 6)])
def test_x_in_the_modulus_is_a_parse_error(capsys, modulus, offset):
    # the modulus is a polynomial in t: an x is not read as t
    code, out, err = run(capsys, "construct", "--field", "3^2", "--modulus", modulus,
                         "--A", "1", "--seed-alpha", "x")
    assert code == 3
    assert out == ""
    assert err == (f"parse error: at offset {offset}: "
                   "'x' is not allowed in a modulus, a polynomial in t\n")


def test_failed_self_check_exits_1(capsys, monkeypatch):
    import char3iso.isocore as isocore
    from char3iso import LaurentSeries

    solve_gamma = isocore.solve_gamma

    def corrupted(A, psi, gamma0, prec):
        return solve_gamma(A, psi, gamma0, prec) + LaurentSeries.monomial(A.field, 3)

    monkeypatch.setattr(isocore, "solve_gamma", corrupted)
    code, out, err = run(capsys, "construct", "--A", "2", "--B", "0",
                         "--seed-alpha", "x", "--format", "records")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: ")


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["construct"])  # missing --A
    assert err.value.code == 3


def test_unknown_command_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 3


def test_closed_stdout_exits_141_without_a_traceback():
    # At --prec 8192 the records output (about 100 kB) outgrows a pipe's
    # buffer, so the command is still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "char3iso.cli", "construct", "--field", "3^2", "--A=1",
         *SEEDS_2048["mul2"], "--prec", "8192", "--format", "records"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    try:
        assert proc.stdout.readline() == b"command=construct\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


EXPORTS = [
    "BadInitial", "Char3Error", "CompatReport", "CurveParams", "FieldElement", "FieldParams",
    "FieldTooLarge", "FormalEndomorphism", "FunctionalEquationReport", "GeneratorUnavailable",
    "IncompatibleSeed", "InsufficientPrecision", "InvalidCurveParameters", "LaurentSeries",
    "MapCheckReport", "MixedFields", "NonRegularPsi", "ParseError", "PointNotOnCurve",
    "PrecisionError", "RationalFunction", "Seed", "SeedError", "VerificationFailed",
    "ZeroDenominator", "ZeroDivisor", "check_map", "construct", "construct_with_report",
    "derive_map_pair", "pade", "parse_rational_function", "verify_functional_equation",
]

STARTUP_SCRIPT = """
import json, sys
from char3iso import cli
codes = [cli.main(["construct", "--A", "1", "--B", "2", "--seed-alpha", "x"]),
         cli.main(["verify", "--A", "1", "--B", "2", "--eta", "x"])]
after_construct = sorted({"dataclasses", "char3iso.curve"} & set(sys.modules))
codes.append(cli.main(["identify", "--A", "1", "--B", "2", "--fx", "x", "--fy-factor", "1"]))
after_identify = "char3iso.curve" in sys.modules
import char3iso
from char3iso import MapCheckReport, check_map
star = {}
exec("from char3iso import *", star)
print(json.dumps([codes, after_construct, after_identify, sorted(char3iso.__all__),
                  sorted(set(char3iso.__all__) - set(star)),
                  [check_map.__module__, MapCheckReport.__module__]]))
"""


def test_startup_loads_only_what_the_command_runs():
    # construct and verify never enumerate points, so a fresh process that
    # runs them loads neither dataclasses nor curve; identify loads curve
    proc = subprocess.run([sys.executable, "-O", "-c", STARTUP_SCRIPT], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, after_construct, after_identify, exports, missing, modules = \
        json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert after_construct == [] and after_identify
    assert exports == EXPORTS and missing == []
    assert modules == ["char3iso.curve", "char3iso.curve"]
