"""CLI tests: subcommands, exit-code contract, lossless JSON, config
precedence, and report determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from symcert import report_bundle
from symcert.certificate import window_check
from symcert.cli import run

F = Fraction
GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


class TestSigma:
    def test_profile(self, capsys):
        code, data, _ = invoke_json(capsys, "sigma", "--x", '["4","4","1/4","1/4"]')
        assert code == 0
        assert data["sigma"] == ["1", "17/2", "321/16", "17/2", "1"]
        assert data["e"] == ["1", "17/8", "107/32", "17/8", "1"]

    def test_decimal_entries_parse_exactly(self, capsys):
        code, data, _ = invoke_json(capsys, "sigma", "--x", '["0.25","4"]')
        assert code == 0
        assert data["x"] == ["1/4", "4"]


class TestVerify:
    def test_combo_counterexample_is_finding(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "verify", "--ineq", "combo",
            "--x", '["4","4","1/4","1/4"]',
            "--coeffs", '["1","0","1"]',
        )
        assert code == 1
        assert data["report"]["gap"] == "-825/1024"
        assert data["report"]["relation"] == "Negative"

    def test_gen_nm_passes(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "verify", "--ineq", "gen-nm",
            "--x", '["4","4","1/4","1/4"]', "--alpha", "1", "--k", "1",
        )
        assert code == 0
        assert data["report"]["relation"] == "StrictlyPositive"

    def test_gen_nm_zero_gap_outside_the_labelled_cases(self, capsys):
        # a zero gap that is neither all-equal nor ratio -alpha keeps the
        # NotApplicable label: the exact equality set is not classified yet
        code, data, _ = invoke_json(
            capsys,
            "verify", "--ineq", "gen-nm",
            "--x", '["1","0","0","0"]', "--alpha", "1", "--k", "2",
        )
        assert code == 0
        assert data["report"]["gap"] == "0"
        assert data["report"]["relation"] == "Zero"
        assert data["report"]["equality_case"] == "NotApplicable"

    def test_newton(self, capsys):
        code, data, _ = invoke_json(
            capsys, "verify", "--ineq", "newton", "--x", '["1","2","3"]', "--k", "1"
        )
        assert code == 0
        assert data["report"]["gap"] == "1/3"

    def test_quantitative_defaults_to_certified_theta(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "verify", "--ineq", "quantitative",
            "--x", '["1","2","3","4"]', "--alpha", "-2", "--k", "1",
        )
        assert code == 0
        assert data["theta"] == "5/11"

    def test_remark_is_finding(self, capsys):
        code, data, _ = invoke_json(
            capsys, "verify", "--ineq", "remark", "--n", "3", "--k", "0"
        )
        assert code == 1
        assert data["witness"]["report"]["gap"] == "-1"
        assert data["witness"]["x"] == ["2", "2", "2"]

    def test_special_case(self, capsys):
        # the special windows are the quantitative gap at theta 1/2, not an ineq of their own
        code, out, _ = invoke(
            capsys,
            "verify", "--ineq", "special",
            "--x", '["1","2","3"]', "--alpha", "-1", "--case", "K0",
        )
        assert code == 2
        assert out == ""
        code, data, _ = invoke_json(
            capsys,
            "verify", "--ineq", "quantitative",
            "--x", '["1","2","3"]', "--alpha", "-1", "--k", "0",
        )
        assert code == 0
        assert data["theta"] == "1/2"
        assert data["report"]["gap"] == "15/2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ineq", "newton", "--x", '["1","2","3"]', "--k", "1"],
            ["--ineq", "gen-nm", "--x", '["4","4","1/4","1/4"]', "--alpha", "1", "--k", "1"],
            ["--ineq", "combo", "--x", '["4","4","1/4","1/4"]', "--coeffs", '["1","0","1"]'],
            ["--ineq", "liu-ren", "--x", '["1","2","3"]', "--alpha", "1", "--k", "2"],
            ["--ineq", "remark", "--n", "3", "--k", "0"],
        ],
    )
    def test_theta_rejected_outside_quantitative(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", *argv, "--theta", "1/2")
        assert code == 2
        assert out == ""
        assert err == f"error: --theta applies only to --ineq quantitative, not {argv[1]}\n"

    @pytest.mark.parametrize(
        "argv, stray, readers",
        [
            (
                ["--ineq", "newton", "--x", '["1","2","3"]', "--k", "1"],
                ["--alpha", "5"],
                "gen-nm or quantitative or liu-ren",
            ),
            (
                ["--ineq", "gen-nm", "--x", '["1","2","3","4"]', "--alpha", "1", "--k", "1"],
                ["--coeffs", '["1"]'],
                "combo",
            ),
            (
                ["--ineq", "remark", "--n", "3", "--k", "0"],
                ["--x", '["1","2","3"]'],
                "newton or gen-nm or combo or quantitative or liu-ren",
            ),
            (
                ["--ineq", "combo", "--x", '["1","2","3"]', "--coeffs", '["1"]'],
                ["--n", "9"],
                "remark",
            ),
        ],
    )
    def test_flag_the_inequality_does_not_read_is_rejected(self, capsys, argv, stray, readers):
        assert invoke(capsys, "verify", *argv)[0] in (0, 1)
        code, out, err = invoke(capsys, "verify", *argv, *stray)
        assert (code, out) == (2, "")
        assert err == f"error: {stray[0]} applies only to --ineq {readers}, not {argv[1]}\n"

    GEN_NM = ("verify", "--ineq", "gen-nm", "--x", '["1","2","3","4"]', "--k", "1")

    def test_negative_rational_as_separate_argument(self, capsys):
        # argparse alone takes -1/2 for an option and exits 2
        separate = invoke(capsys, *self.GEN_NM, "--alpha", "-1/2")
        joined = invoke(capsys, *self.GEN_NM, "--alpha=-1/2")
        assert separate == joined
        assert separate[0] == 0 and json.loads(separate[1])["alpha"] == "-1/2"

    def test_negative_decimal_exponent_as_separate_argument(self, capsys):
        code, data, err = invoke_json(capsys, *self.GEN_NM, "--alpha", "-1e3")
        assert (code, err) == (0, "")
        assert data["alpha"] == "-1000"

    def test_negative_theta_as_separate_argument(self, capsys):
        # parsed as the value of --theta, so the range check answers, not argparse
        code, out, err = invoke(
            capsys,
            "verify", "--ineq", "quantitative", "--x", '["1","2","3","4"]',
            "--alpha", "-2", "--k", "1", "--theta", "-1/3",
        )
        assert (code, out) == (2, "")
        assert err == "error: theta must lie in (0, 1), got -1/3\n"

    def test_option_after_rational_flag_is_not_its_value(self, capsys):
        code, out, err = invoke(capsys, *self.GEN_NM[:-2], "--alpha", "--k", "1")
        assert (code, out) == (2, "")
        assert "--alpha: expected one argument" in err

    def test_abbreviated_flag_takes_negative_rational(self, capsys):
        # argparse accepts the prefix --alph for --alpha; its value is joined too
        abbreviated = invoke(capsys, *self.GEN_NM, "--alph", "-1/2")
        assert abbreviated == invoke(capsys, *self.GEN_NM, "--alpha=-1/2")
        assert abbreviated[0] == 0

    def test_abbreviated_theta_takes_negative_rational(self, capsys):
        code, out, err = invoke(
            capsys,
            "verify", "--ineq", "quantitative", "--x", '["1","2","3","4"]',
            "--alpha", "-2", "--k", "1", "--thet", "-1/4",
        )
        assert (code, out) == (2, "")
        assert err == "error: theta must lie in (0, 1), got -1/4\n"

    def test_other_abbreviations_still_parse(self, capsys):
        assert invoke(capsys, "lemmas", "--n-m", "5") == invoke(capsys, "lemmas", "--n-max", "5")

    def test_liu_ren_precondition_error(self, capsys):
        code, out, err = invoke(
            capsys,
            "verify", "--ineq", "liu-ren",
            "--x", '["-1","-1","5"]', "--alpha", "1", "--k", "2",
        )
        assert code == 2
        assert "cone" in err


class TestChain:
    def test_classical(self, capsys):
        code, data, _ = invoke_json(capsys, "chain", "--x", '["1","2","3"]')
        assert code == 0
        assert data == {"kind": "classical", "x": ["1", "2", "3"], "holds": True}

    def test_generalized(self, capsys):
        code, data, _ = invoke_json(
            capsys, "chain", "--x", '["1","2","3","4"]', "--alpha", "1"
        )
        assert code == 0
        assert data["holds"] is True
        assert data["chain_top"] == 3


class TestCertificateCommands:
    def test_certificate_values(self, capsys):
        code, out, err = invoke(capsys, "certificate", "--n", "4", "--k", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "n": 4,
            "k": 1,
            "binomials": {"a": 1, "b": 4, "c": 6, "d": 4},
            "theta1": "5/11",
            "theta2": "3/11",
            "t": "4",
            "A1": "90/11",
            "A2": "120/11",
            "A3": "-180/11",
        }
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_unprintable_certificate_refused_at_once(self, capsys):
        # C(200000, 100000) has about 60,200 digits, far past the 4300
        # Python prints; the window is refused before any binomial is built
        start = time.perf_counter()
        code, out, err = invoke(capsys, "certificate", "--n", "200000", "--k", "100000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, k", [(7137, 3568), (15199, 1519), (10**309, 1)], ids=["central", "tenth", "n-past-float"]
    )
    def test_printable_certificate_not_refused(self, capsys, n, k):
        # the widest printable windows have binomials of about 2,150 digits
        code, out, err = invoke(capsys, "certificate", "--n", str(n), "--k", str(k))
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == n

    def test_lemmas_pass(self, capsys):
        code, data, _ = invoke_json(capsys, "lemmas", "--n-max", "8")
        assert code == 0
        assert data["all_pass"] is True
        assert data["pairs"] == sum(n - 2 for n in range(4, 9))

    def test_lemmas_build_no_binomial(self, capsys, monkeypatch):
        expected = invoke(capsys, "lemmas", "--n-max", "12")

        def refuse(n, k):
            raise AssertionError("binom_quad called")

        monkeypatch.setattr("symcert.certificate.binom_quad", refuse)
        assert invoke(capsys, "lemmas", "--n-max", "12") == expected
        assert expected[0] == 0 and json.loads(expected[1])["all_pass"] is True

    def test_theta(self, capsys):
        code, data, _ = invoke_json(capsys, "theta", "--n", "3", "--k", "1")
        assert code == 0
        assert data == {"n": 3, "k": 1, "theta": "1/2", "source": "special-case"}

    def test_theta_at_large_n_in_bounded_time(self, capsys):
        # C(2*10^6, 10^6) alone would take tens of seconds to build
        start = time.perf_counter()
        code, data, err = invoke_json(capsys, "theta", "--n", "2000000", "--k", "1000000")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert data["source"] == "certificate"

    def test_pass_fields_are_window_check(self, capsys):
        _, lemmas, _ = invoke_json(capsys, "lemmas", "--n-max", "10")
        _, report, _ = invoke_json(capsys, "report", "--n-max", "10", "--samples", "1")
        assert len(lemmas["rows"]) == len(report["certificates"]) == sum(n - 2 for n in range(4, 11))
        for row in lemmas["rows"] + report["certificates"]:
            assert row["pass"] is window_check(row["n"], row["k"]).passed

    def test_lemmas_without_windows_rejected(self, capsys):
        for n_max in ("3", "2", "-1"):
            code, out, err = invoke(capsys, "lemmas", "--n-max", n_max)
            assert code == 2
            assert out == ""
            assert err == f"error: lemmas needs n_max >= 4, got {n_max}\n"

    def test_certificate_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "certificate", "--n", "3", "--k", "1")
        assert code == 2
        assert "n >= 4" in err


class TestReduce:
    def test_case_a_payload(self, capsys):
        code, data, _ = invoke_json(capsys, "reduce", "--x", '["1","2","3","4"]', "--k", "1")
        assert code == 0
        assert data["cubic"]["coefficients"] == ["1", "-15/2", "35/2", "-25/2"]
        assert data["discriminant"] == "125/16"
        assert data["branch"] == "CaseA"
        assert data["vieta_moments"] == ["5/2", "35/6", "25/2"]
        assert len(data["roots"]) == 3
        assert data["precision"] == 40

    def test_degenerate_payload(self, capsys):
        code, data, _ = invoke_json(
            capsys, "reduce", "--x", '["1","-1","0","0","0"]', "--k", "2"
        )
        assert code == 0
        assert data["branch"] == "Degenerate"
        assert data["degenerate_means"] == ["-1/10", "0"]


class TestSearchCommands:
    def test_conjecture_witness(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "search", "conjecture15", "--m", "3", "--n", "4", "--seed", "1", "--budget", "2",
        )
        assert code == 1
        assert data["witness"]["gap"] == "-825/1024"

    def test_conjecture_none_found(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "search", "conjecture15", "--m", "1", "--n", "4", "--seed", "1", "--budget", "10",
        )
        assert code == 0
        assert data["witness"] is None

    def test_theta_summary(self, capsys):
        code, data, _ = invoke_json(
            capsys,
            "search", "theta", "--n", "4", "--k", "1", "--samples", "50", "--seed", "4",
        )
        assert code == 0
        assert data["certified_theta"] == "5/11"
        assert Fraction(data["min_ratio"]) >= F(5, 11)

    def test_scan_negative_region_is_finding(self, capsys):
        code, data, _ = invoke_json(
            capsys, "search", "scan", "--family", "alternating-signs", "--n", "3"
        )
        assert code == 1
        assert data["negative"] > 0


class TestReport:
    def test_byte_identical_repeat(self, capsys):
        code1, out1, _ = invoke(capsys, "report", "--n-max", "5", "--seed", "3", "--samples", "40")
        code2, out2, _ = invoke(capsys, "report", "--n-max", "5", "--seed", "3", "--samples", "40")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_document_shape(self, capsys):
        _, data, _ = invoke_json(capsys, "report", "--n-max", "4", "--samples", "20")
        assert data["config"]["n_max"] == 4
        assert data["checks"]["all_pass"] is True
        thetas = {(row["n"], row["k"]): row["theta"] for row in data["theta"]}
        assert thetas[(3, 1)] == "1/2"
        assert thetas[(4, 1)] == "5/11"

    def test_minimal_n_max_has_only_special_cases(self, capsys):
        _, data, _ = invoke_json(capsys, "report", "--n-max", "3", "--samples", "10")
        assert data["certificates"] == []
        assert all(row["source"] == "special-case" for row in data["theta"])

    def test_no_samples_rejected(self, capsys):
        for samples in ("0", "-3"):
            code, out, err = invoke(capsys, "report", "--n-max", "4", "--samples", samples)
            assert code == 2
            assert out == ""
            assert err == f"error: report needs samples >= 1, got {samples}\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, data, _ = invoke_json(
            capsys, "report", "--n-max", "4", "--samples", "10", "--out", str(target)
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert document["config"]["n_max"] == 4

    def test_out_file_matches_the_benchmark_golden(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = invoke(
            capsys,
            "report", "--n-max", "8", "--seed", "0", "--samples", "200", "--out", str(target),
        )
        assert code == 0
        assert target.read_bytes() == (GOLDENS / "cli-readme" / "report.json").read_bytes()

    def test_bundle_function_deterministic(self):
        assert report_bundle(5, 2, 30) == report_bundle(5, 2, 30)

README_GOLDENS = GOLDENS / "cli-readme"
README_MANIFEST = json.loads((README_GOLDENS / "manifest.json").read_text())["commands"]


@pytest.mark.parametrize(
    "entry", README_MANIFEST, ids=[entry["name"] for entry in README_MANIFEST]
)
def test_readme_command_matches_its_golden(capsys, monkeypatch, tmp_path, entry):
    """Every README command prints its golden stdout byte for byte and
    exits with its golden code; `report --out` writes the golden file."""
    monkeypatch.chdir(tmp_path)
    code = run(entry["argv"])
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out.encode() == (README_GOLDENS / entry["stdout"]).read_bytes()
    if "--out" in entry["argv"]:
        written = entry["argv"][entry["argv"].index("--out") + 1]
        assert (tmp_path / written).read_bytes() == (README_GOLDENS / written).read_bytes()


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, capsys, tmp_path):
        config = tmp_path / "symcert.json"
        config.write_text(json.dumps({"n_max": 4, "samples": 25}))
        _, data, _ = invoke_json(capsys, "report", "--config", str(config))
        assert data["config"]["n_max"] == 4
        assert data["config"]["samples"] == 25
        assert data["config"]["seed"] == 0  # default
        _, data, _ = invoke_json(capsys, "report", "--config", str(config), "--n-max", "5")
        assert data["config"]["n_max"] == 5
        assert data["config"]["samples"] == 25

    def test_bad_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("[1, 2]")
        code, _, err = invoke(capsys, "report", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_max": 1e400}',
            '{"seed": Infinity}',
            '{"seed": 1.5}',
            '{"n_max": true}',
            '{"budget": 2.0}',
            '{"samples": false}',
        ],
    )
    def test_non_integer_config_values_rejected(self, capsys, tmp_path, text):
        # int() would overflow on the first two, truncate 1.5 and take true as 1
        config = tmp_path / "c.json"
        config.write_text(text)
        code, out, err = invoke(capsys, "lemmas", "--config", str(config))
        key = next(iter(json.loads(text)))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config key {key!r} must be an integer")
        assert err.count("\n") == 1

    def test_string_config_integer_still_accepted(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"n_max": "5"}')
        code, data, _ = invoke_json(capsys, "lemmas", "--config", str(config))
        assert (code, data["n_max"]) == (0, 5)

    def test_deeply_nested_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("[" * 5000)
        code, out, err = invoke(capsys, "lemmas", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: config file is nested too deeply\n"


class TestErrorPaths:
    def test_malformed_point(self, capsys):
        code, _, err = invoke(capsys, "verify", "--ineq", "newton", "--x", "oops", "--k", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_huge_exponent_rejected_at_once(self):
        # parsing would build 10**(10**9); the exponent bound refuses it first
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "symcert", "sigma", "--x", '["1e1000000000"]'],
            capture_output=True,
            text=True,
            timeout=2,
            env=env,
        )
        assert time.perf_counter() - start < 2
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: decimal exponent in '1e1000000000' exceeds 4300 in magnitude\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sigma", "--x"),
            ("verify", "--ineq", "combo", "--x", '["1","2"]', "--coeffs"),
            ("search", "scan", "--family", "alternating-signs", "--n", "3", "--grid"),
        ],
        ids=["x", "coeffs", "grid"],
    )
    def test_deeply_nested_literal_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "[" * 5000)
        assert (code, out) == (2, "")
        assert err == "error: tuple literal is nested too deeply\n"

    def test_float_entry_rejected(self, capsys):
        code, _, err = invoke(capsys, "sigma", "--x", "[0.1]")
        assert code == 2
        assert "exact" in err

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert invoke(capsys, "certificate", "--n", "4")[0] == 2

    def test_out_of_range_window(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--ineq", "gen-nm", "--x", '["1","2"]', "--alpha", "1", "--k", "1"
        )
        assert code == 2

    def test_all_samples_degenerate_is_an_input_error(self, capsys, monkeypatch):
        import symcert.search as search_module

        # every window has a vanishing middle term, so no ratio is defined
        monkeypatch.setattr(search_module, "_integer_window", lambda *args: ([0, 0, 0], 0, 1, 1, []))
        code, out, err = invoke(capsys, "search", "theta", "--n", "4", "--k", "1", "--samples", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: all 5 samples had a vanishing denominator")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
