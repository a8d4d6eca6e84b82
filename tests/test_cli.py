"""Front end: file parsing with diagnostics, verbs, formats, exit codes."""

import json

import pytest

from digrow import cli, fixture_path, presentation
from digrow.cli import main, parse_presentation
from digrow.element import QQ, PrimeField
from digrow.errors import ParseError
from digrow.growth import TheoremAReport
from digrow.presentation import DIALGEBRA


def parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    return exc.value


# ===== presentation files ==================================================


def test_parse_minimal_files():
    pres = parse_presentation("field Q\ngenerators a\n")
    assert pres.alphabet.names == ("a",)
    assert pres.field is QQ
    assert pres.relators == () and pres.schemes == () and pres.slack is None

    pres = parse_presentation("field Q\ngenerators a b\nrel [b]@1 - [a a]@2 + [a a]@1\n")
    assert len(pres.relators) == 1
    assert pres.relators[0].format() == "-[a a]@2 + [a a]@1 + [b]@1"

    # field defaults to Q and may be omitted entirely
    pres = parse_presentation("generators x y\nidrel lcomm\nidrel rcomm\n")
    assert pres.field is QQ and pres.schemes == ("lcomm", "rcomm")


def test_parse_comments_blanks_and_gf():
    text = (
        "# a remark\n"
        "field gf 7\n"
        "\n"
        "generators a b  # trailing comment\n"
        "rel [a b]@1 - [b a]@1   # more\n"
        "slack 1\n"
    )
    pres = parse_presentation(text)
    assert pres.field == PrimeField(7)
    assert pres.slack == 1
    assert len(pres.relators) == 1


def test_parse_diagnostics_are_positioned():
    err = parse_error("generators a a")
    assert "duplicate generator 'a'" in err.message
    assert (err.line, err.column) == (1, 1)

    err = parse_error("field Q\ngenerators a b\nrel [a c]@1")
    assert err.message == "unknown generator 'c'"
    assert (err.line, err.column) == (3, 8)  # points at the c itself

    err = parse_error("field gf 6\ngenerators a")
    assert "modulus 6 is not prime" in err.message
    assert (err.line, err.column) == (1, 7)

    err = parse_error("generators a\ngenerators b")
    assert "duplicate generators" in err.message
    assert (err.line, err.column) == (2, 1)

    assert str(parse_error("field gf 6\ngenerators a")) == (
        "modulus 6 is not prime at line 1, column 7"
    )


def test_parse_structural_errors():
    assert "missing generators" in parse_error("").message
    assert parse_error("field Q\n").line == 1
    assert "before generators" in parse_error("rel [a]@1\ngenerators a").message
    assert "before generators" in parse_error("generators a\nfield Q").message
    assert "duplicate field" in parse_error("field Q\nfield Q\ngenerators a").message
    assert "unknown directive" in parse_error("generators a\nfrobnicate 3").message
    assert "zero relator" in parse_error("generators a\nrel [a]@1 - [a]@1").message
    assert "no element literal" in parse_error("generators a\nrel").message
    assert "unknown identity scheme" in parse_error("generators a\nidrel weird").message
    assert "duplicate identity scheme" in parse_error(
        "generators a\nidrel cross\nidrel cross"
    ).message
    assert "nonnegative integer" in parse_error("generators a\nslack -1").message
    assert "duplicate slack" in parse_error("generators a\nslack 1\nslack 2").message
    assert "expected Q or gf" in parse_error("field R\ngenerators a").message
    assert "expected a prime" in parse_error("field gf x\ngenerators a").message


def test_parse_round_trips_through_canonical_text():
    text = (
        "field gf 7\ngenerators a b\n"
        "rel [a b]@1 - [b a]@2\nrel 2*[a]@1 + [b]@1\n"
        "idrel cross\nslack 3\n"
    )
    pres = parse_presentation(text)
    again = parse_presentation(pres.canonical_text())
    assert again.alphabet == pres.alphabet
    assert again.field == pres.field
    assert again.relators == pres.relators
    assert again.schemes == pres.schemes
    assert again.slack == pres.slack
    assert again.fingerprint == pres.fingerprint


def test_every_shipped_fixture_parses():
    for name in ("free_a", "free_ab", "comm_a", "comm_ab", "cross_a",
                 "middle_cap_a", "inhomog_ab", "zero_a"):
        pres = parse_presentation(open(fixture_path(name), encoding="utf-8").read())
        assert pres.alphabet.size >= 1


# ===== verbs ===============================================================

FREE_A = fixture_path("free_a")
FREE_AB = fixture_path("free_ab")
COMM_AB = fixture_path("comm_ab")
INHOMOG = fixture_path("inhomog_ab")
ZERO = fixture_path("zero_a")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_growth_csv_golden(capsys):
    code, out, err = run(capsys, "growth", FREE_A, "--max-degree", "10", "--format", "csv")
    assert code == 0 and err == ""
    want = ["n,count_n,cumulative_n,mode"]
    cum = 0
    for t in range(1, 11):
        cum += t
        want.append(f"{t},{t},{cum},{DIALGEBRA}")
    assert out == "\n".join(want) + "\n"
    assert out.endswith("10,10,55,dialgebra\n")


def test_growth_text_and_warnings(capsys):
    code, out, _ = run(capsys, "growth", INHOMOG, "--max-degree", "4")
    assert code == 0
    assert "approximate: lower-bound ideal / upper-bound basis (slack 2)" in out
    code, out, _ = run(capsys, "growth", COMM_AB, "--max-degree", "4")
    assert code == 0 and "approximate" not in out
    assert out.splitlines()[1].split() == ["1", "2", "2"]


def test_growth_json(capsys):
    code, out, _ = run(capsys, "growth", FREE_AB, "--max-degree", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_degree"] == [2, 8, 24, 64, 160]
    assert payload["cumulative"][-1] == 258
    assert payload["mode"] == "dialgebra" and payload["exact"] is True


def test_gk_text_and_json(capsys):
    code, out, _ = run(capsys, "gk", FREE_A, "--max-degree", "64", "--window", "16:64")
    assert code == 0
    assert "classification: polynomial" in out
    slope = float(next(l for l in out.splitlines() if l.startswith("slope:")).split()[1])
    assert abs(slope - 2.0) < 0.1

    code, out, _ = run(capsys, "gk", FREE_A, "--max-degree", "64",
                       "--window", "16:64", "--format", "json")
    payload = json.loads(out)
    assert payload["classification"] == "polynomial"
    assert payload["window"] == [16, 64]
    assert abs(payload["slope"] - 2.0) < 0.1


def test_gk_associative_mode(capsys):
    code, out, _ = run(capsys, "gk", FREE_AB, "--max-degree", "24", "--mode", "assoc",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "superpolynomial"
    assert payload["mode"] == "associative"


def test_nf_verb(capsys):
    code, out, _ = run(capsys, "nf", INHOMOG, "--expr", "[a a]@2", "--max-degree", "4")
    assert code == 0
    assert out == "[a a]@1 + [b]@1\n"
    code, out, _ = run(capsys, "nf", INHOMOG, "--expr", "[a a]@2", "--max-degree", "4",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["normal_form"] == "[a a]@1 + [b]@1"
    assert payload["input"] == "[a a]@2"
    assert payload["exact"] is False and payload["degree_bound"] == 4


def test_basis_verb(capsys):
    code, out, _ = run(capsys, "basis", ZERO, "--max-degree", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "mode": "dialgebra",
        "degree_bound": 3,
        "homogeneous": True,
        "slack": 0,
        "basis": [],
        "pivots": ["[a]@1", "[a a]@1", "[a a]@2",
                   "[a a a]@1", "[a a a]@2", "[a a a]@3"],
    }
    code, out, _ = run(capsys, "basis", FREE_A, "--max-degree", "2")
    assert code == 0
    assert out.splitlines()[-2:] == ["  [a a]@1", "  [a a]@2"]


def test_verify_commutative_fixture(capsys):
    code, out, _ = run(capsys, "verify", COMM_AB, "--max-degree", "6")
    assert code == 0
    assert "PASS axiom residuals vanish on 200 random triples" in out
    assert "free commutative quotient: GK = 2" in out
    assert "FAIL" not in out

    code, out, _ = run(capsys, "verify", COMM_AB, "--max-degree", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hard_failures"] == 0
    assert payload["theorem_a"]["ok"] is True
    assert payload["prefix_suffix"]["ok"] is True
    assert payload["identity_class"]["holds"] == {
        "lcomm": True, "rcomm": True, "cross": False,
    }
    assert "slope_ratio" in payload


def test_verify_saturates_each_mode_once(capsys, monkeypatch):
    calls = []
    original = presentation._Saturator.run

    def counting(self):
        calls.append(self.associative)
        return original(self)

    monkeypatch.setattr(presentation._Saturator, "run", counting)
    code, _, _ = run(capsys, "verify", COMM_AB, "--max-degree", "5")
    assert code == 0
    assert sorted(calls) == [False, True]


def test_verify_capped_identity_scan_warns(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_IDENTITY_PAIRS", 10)
    code, out, _ = run(capsys, "verify", COMM_AB, "--max-degree", "5")
    assert code == 0
    assert "WARN identity scan capped at 10 pairs per identity; no prediction drawn" in out
    assert "holds through degree" not in out
    assert "free commutative quotient" not in out


def test_verify_truncation_is_soft(capsys):
    code, out, _ = run(capsys, "verify", INHOMOG, "--max-degree", "5")
    assert code == 0
    assert "WARN approximate: lower-bound ideal / upper-bound basis (slack 2)" in out
    assert "FAIL" not in out


def test_verify_hard_failure_exits_2(capsys, monkeypatch):
    def broken(series_d, series_a, alphabet_size):
        return TheoremAReport(
            checked=series_d.degree_bound,
            violation={"n": 1, "side": "lower", "dialgebra": 0, "associative": 1,
                       "bound": 1},
            truncated=False,
        )

    monkeypatch.setattr("digrow.cli.theorem_a_check", broken)
    code, out, _ = run(capsys, "verify", COMM_AB, "--max-degree", "4")
    assert code == 2
    assert "FAIL count inequality violated" in out


# ===== exit codes ==========================================================


def test_degree_cap_refusal_and_force(capsys):
    code, out, err = run(capsys, "growth", FREE_AB, "--max-degree", "13")
    assert code == 3 and out == ""
    assert "resource cap" in err and "pass --force to lift it" in err

    code, out, _ = run(capsys, "growth", FREE_AB, "--max-degree", "13",
                       "--force", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == f"13,{13 * 2**13},{sum(t * 2**t for t in range(1, 14))},dialgebra"

    # associative mode and single-generator alphabets are exempt
    code, _, _ = run(capsys, "growth", FREE_AB, "--max-degree", "13", "--mode", "assoc")
    assert code == 0
    code, _, _ = run(capsys, "growth", FREE_A, "--max-degree", "50")
    assert code == 0


def test_saturation_universe_cap_exits_3(capsys):
    code, out, err = run(capsys, "growth", COMM_AB, "--max-degree", "20", "--force")
    assert code == 3 and out == ""
    assert "resource cap" in err and "monomials" in err


def test_invalid_inputs_exit_1(capsys, tmp_path):
    assert run(capsys, "growth", str(tmp_path / "missing.dpres"))[0] == 1
    assert run(capsys, "frobnicate", FREE_A)[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "gk", FREE_A, "--window", "xy")[0] == 1
    code, _, err = run(capsys, "gk", FREE_A, "--max-degree", "8", "--window", "9:20")
    assert code == 1 and "digrow: error:" in err
    assert run(capsys, "nf", FREE_A, "--expr", "[a]@1", "--format", "csv")[0] == 1
    assert run(capsys, "basis", FREE_A, "--format", "csv")[0] == 1
    assert run(capsys, "verify", FREE_A, "--max-degree", "4", "--format", "csv")[0] == 1
    assert run(capsys, "growth", FREE_A, "--max-degree", "0")[0] == 1
    code, _, err = run(capsys, "nf", FREE_A, "--expr", "[a]@1 ++", "--max-degree", "3")
    assert code == 1 and "digrow: error:" in err

    bad = tmp_path / "bad.dpres"
    bad.write_text("generators a a\n")
    code, _, err = run(capsys, "growth", str(bad))
    assert code == 1 and "line 1" in err


# ===== output files and determinism ========================================


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, out, _ = run(capsys, "growth", FREE_A, "--max-degree", "6",
                       "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    on_disk = target.read_text(encoding="utf-8")
    _, stdout, _ = run(capsys, "growth", FREE_A, "--max-degree", "6", "--format", "csv")
    assert on_disk == stdout


def test_outputs_are_byte_deterministic(capsys):
    runs = [
        run(capsys, "verify", COMM_AB, "--max-degree", "5", "--format", "json")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [
        run(capsys, "basis", COMM_AB, "--max-degree", "4", "--format", "json")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [
        run(capsys, "growth", INHOMOG, "--max-degree", "5", "--format", "csv")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
