from pathlib import Path

import pytest

from char3iso.cli import main

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


def test_construct_incompatible_seed_exits_2(capsys):
    code, _, _ = run(capsys, "construct", "--field", "3^1", "--A", "1",
                     "--B", "2", "--seed-beta", "1/x")
    assert code == 2


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
    assert "holds" in out


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


def test_identify_scalar_search_stops_at_the_group_order(capsys, monkeypatch):
    # y^2 = x^3 - x over GF(3) has 4 points, so 4 kills each of them and no
    # scalar above 4 can be the first to match: a search up to 10^8 ends
    # after a few dozen additions
    import char3iso.curve as curve

    p_add = curve.p_add
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 1000, "the scalar search ran past the group order"
        return p_add(*args)

    monkeypatch.setattr(curve, "p_add", counted)
    code, out, _ = run(capsys, "identify", "--A", "2", "--B", "0",
                       "--fx", "x+1", "--fy-factor", "1",
                       "--max-scalar", "100000000")
    assert code == 0
    assert out.endswith("scalar: none (no multiplication map matches pointwise)\n")


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


@pytest.mark.parametrize("fmt", ["records", "text"])
def test_identify_mul2_matches_transcript(capsys, fmt):
    code, out, _ = run(capsys, *IDENTIFY_MUL2, "--format", fmt)
    assert code == 0
    assert out == (DATA / f"identify_mul2_gf35.{fmt}.txt").read_text()


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
