import hashlib
import json

import pytest

from dynatomic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhi:
    def test_specific_parameter(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "-d", "2", "-N", "1", "-c", "0")
        assert code == 0
        assert out.splitlines() == ["# degree 2", "z^2 - z"]

    def test_generic(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "-d", "2", "-N", "2", "--generic")
        assert code == 0
        assert out.splitlines()[-1] == "z^2 + z + (c + 1)"

    @pytest.mark.parametrize("d, n, text", [
        (2, 3, "# degree 6\n"
               "z^6 + z^5 + (3*c + 1)*z^4 + (2*c + 1)*z^3 + (3*c^2 + 3*c + 1)*z^2"
               " + (c^2 + 2*c + 1)*z + (c^3 + 2*c^2 + c + 1)\n"),
        (3, 2, "# degree 6\nz^6 + z^4 + 2*c*z^3 + z^2 + c*z + (c^2 + 1)\n"),
    ])
    def test_generic_text(self, capsys, d, n, text):
        assert run_cli(capsys, "phi", "-d", str(d), "-N", str(n), "--generic")[:2] == (0, text)

    @pytest.mark.parametrize("d, n, digest", [
        (2, 6, "9dcf8ce3111f4a5d58d0440df8e6c4afd349bdebe40f24599be2762a7d668420"),
        (3, 4, "94a98950d07ea03f58fce3d43a4dd8165348ba386926e347a68a6812cd7abd16"),
        (4, 3, "125b5b6ca3953aa54a9100392663e5c55c27f33eb88988d5eed18996b69471fe"),
    ])
    def test_generic_digest(self, capsys, d, n, digest):
        # sha256 of the stdout that the bivariate Q[c][z] build printed
        code, out, _ = run_cli(capsys, "phi", "-d", str(d), "-N", str(n), "--generic")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_degree_header_for_big_case(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "-d", "2", "-N", "6", "-c", "-71/48")
        assert code == 0
        assert out.splitlines()[0] == "# degree 54"

    def test_degree_guard_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "phi", "-d", "3", "-N", "8", "-c", "0")
        assert code == 2
        assert "degree guard" in err

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "phi", "-d", "2", "-N", "2")
        assert code == 1

    def test_bad_rational_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "phi", "-d", "2", "-N", "2", "-c", "1/0")
        assert code == 1


class TestFactor:
    def test_polynomial_argument(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "z^2 - 1")
        assert code == 0
        assert out.splitlines()[2:] == ["z - 1", "z + 1"]

    def test_dynatomic_flags(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "-d", "2", "-N", "3", "-c", "-2")
        assert code == 0
        assert "z^3 - 3*z + 1" in out

    def test_multiplicity_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "z^2 + z + 1/4")
        assert code == 0
        assert "(2*z + 1)^2" in out
        assert "# content 1/4" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--format", "json", "z^2 - 1")
        data = json.loads(out)
        assert code == 0
        assert data["degree"] == 2
        assert [f["poly"] for f in data["factors"]] == ["z - 1", "z + 1"]

    def test_leading_minus_without_spaces(self, capsys):
        # "-2*z" is the polynomial to factor, not an option name
        code, out, _ = run_cli(capsys, "factor", "-2*z")
        assert code == 0
        assert "# content -2" in out
        assert out.splitlines()[-1] == "z"
        assert run_cli(capsys, "factor", "-z^2+1")[:2] == run_cli(capsys, "factor", "-z^2 + 1")[:2]

    def test_conflicting_inputs_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "z^2-1", "-N", "2", "-c", "0")
        assert code == 1

    def test_malformed_polynomial_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "z**2 - 1")
        assert code == 1

    def test_degree_guard_exit_two(self, capsys):
        # refused once the top power is parsed, before a dense list is built
        code, out, err = run_cli(capsys, "factor", "z^99999999 + 1")
        assert code == 2
        assert out == ""
        assert err.startswith("dynatomic: degree guard: ")


class TestCycles:
    def test_jsonl_records(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "-d", "2", "-N", "2", "-c", "1")
        assert code == 0
        data = json.loads(out.splitlines()[0])
        assert data["discriminant"] == -7
        assert data["exact_period"] == 2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycles", "-d", "2", "-N", "2", "-c", "-3/4", "--format", "text"
        )
        assert code == 0
        assert "degenerate" in out

    def test_text_format_at_large_height(self, capsys):
        # the discriminant -3000000037 * 1000000007 has two prime factors above its cube root
        code, out, _ = run_cli(
            capsys, "cycles", "-d", "2", "-N", "2", "-c", "4/1000000007", "--format", "text"
        )
        assert code == 0
        assert "sqrt(-3000000058000000259)" in out
        assert "-1/2 + 1/2000000014*sqrt(-3000000058000000259)" in out


class TestCheck:
    def test_holds_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-d", "2", "-N", "6", "-c", "-71/48")
        assert code == 0
        data = json.loads(out)
        assert data["aggregate"] == "holds"
        assert data["factor_degrees"] == [2, 2, 2, 48]

    def test_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-d", "2", "-N", "2", "-c", "-3/4")
        assert code == 0
        assert json.loads(out)["aggregate"] == "vacuous"

    def test_fails_is_data_not_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "-d", "2", "-N", "2", "-c", "-1", "--include-rational-points"
        )
        assert code == 0
        assert json.loads(out)["aggregate"] == "fails"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "-d", "2", "-N", "3", "-c", "0", "--format", "text"
        )
        assert code == 0
        assert "holds" in out

    def test_period_one_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "check", "-d", "2", "-N", "1", "-c", "0")
        assert code == 1

    def test_negative_decimal_parameter(self, capsys):
        # "-1.5" is a value of -c, not an option name, just like "-3/2"
        decimal = run_cli(capsys, "check", "-N", "2", "-c", "-1.5")
        fraction = run_cli(capsys, "check", "-N", "2", "-c", "-3/2")
        assert decimal[0] == 0
        assert decimal == fraction


class TestScanCommand:
    def test_jsonl_with_summary(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "-d", "2", "-N", "2", "--max-height", "3")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert "summary" in summary
        assert summary["summary"]["2"]["fails"] == 0
        assert len(lines) - 1 == summary["summary"]["2"]["records"]

    def test_csv_summary_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "-d", "2", "-N", "2", "--max-height", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("d,N,c,")
        assert "# summary N=2" in err

    def test_output_file_truncated(self, capsys, tmp_path):
        path = tmp_path / "scan.jsonl"
        path.write_text("stale content\n")
        code, out, _ = run_cli(
            capsys,
            "scan", "-d", "2", "-N", "2", "--max-height", "2", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert "stale content" not in lines
        assert json.loads(lines[-1])["summary"]["2"]["records"] == len(lines) - 1
        assert "# summary N=2" in out

    def test_unopenable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "scan.jsonl"
        code, out, err = run_cli(
            capsys,
            "scan", "-d", "2", "-N", "2", "--max-height", "2", "--output", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dynatomic: error: cannot open output: ")
        assert err.count("\n") == 1

    def test_repeatable_periods(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "-d", "2", "-N", "2", "-N", "3", "--max-height", "1"
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert set(summary["summary"].keys()) == {"2", "3"}

    def test_jobs_flag_same_output(self, capsys):
        code, solo, _ = run_cli(capsys, "scan", "-d", "2", "-N", "2", "--max-height", "2")
        assert code == 0
        code, dual, _ = run_cli(
            capsys, "scan", "-d", "2", "-N", "2", "--max-height", "2", "--jobs", "2"
        )
        assert code == 0
        assert solo == dual


class TestVerifyPaper:
    def test_single_item(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--items", "mersenne-irreducible")
        assert code == 0
        assert out.splitlines()[0] == "PASS mersenne-irreducible"
        assert "# 1/1 items passed" in out

    def test_unknown_item_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "verify-paper", "--items", "no-such-item")
        assert code == 1

    def test_failed_item_exit_three(self, capsys, monkeypatch):
        from dynatomic import cli
        from dynatomic.verify import ItemResult

        monkeypatch.setattr(
            cli,
            "run_corpus",
            lambda names=None, jobs=1, log=None: [
                ItemResult("stub", False, ("MISMATCH: stubbed",))
            ],
        )
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 3
        assert "# 0/1 items passed" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
