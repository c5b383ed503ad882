import json
import pathlib
import subprocess
import sys

import pytest

from profinite_kit.cli import CommandResult, main, run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

C2 = str(FIXTURES / "c2.json")
U1 = str(FIXTURES / "u1.json")
B21 = str(FIXTURES / "b21.json")
A4A2 = str(FIXTURES / "a4a2.json")

GOLDEN_COMMANDS = [
    ("01_syntactic_abstar", ["syntactic", "--lang", "(ab)*"]),
    ("02_syntactic_full", ["syntactic", "--lang", "(a|b)+"]),
    ("03_member_c2_A", ["member", "--table", C2, "--pv", "A"]),
    ("04_member_c2_G", ["member", "--table", C2, "--pv", "G"]),
    ("05_member_u1_pid", ["member", "--table", U1, "--pid", "xy = yx"]),
    ("06_metric_a_aa", ["metric", "--u", "a", "--v", "aa"]),
    ("07_metric_sl_interval",
     ["metric", "--u", "ab", "--v", "ba", "--pv", "Sl", "--max-order", "3"]),
    ("08_closure_abplus", ["closure", "--lang", "(ab)+", "--word", "ab", "--word", "ba"]),
    ("09_closure_aplus", ["closure", "--lang", "a+", "--alphabet", "ab",
                          "--word", "aaa", "--word", "b"]),
    ("10_separate_ba", ["separate", "--word", "ba", "--lang", "(ab)+", "--certificate"]),
    ("11_separate_member", ["separate", "--word", "ab", "--lang", "(ab)+"]),
    ("12_kernel_b21", ["kernel", "--table", B21]),
    ("13_kernel_c2_trace", ["kernel", "--table", C2, "--trace"]),
    ("14_pointlike_u1", ["pointlike", "--table", U1, "--set", "0,1"]),
    ("15_pointlike_c2", ["pointlike", "--table", C2, "--set", "0,1"]),
    ("16_inevitable_loop", ["inevitable", "--table", C2, "--system", "loop", "--y", "1"]),
    ("17_inevitable_two_vertex",
     ["inevitable", "--table", U1, "--system", "two-vertex", "--targets", "0,1"]),
    ("18_omega_a4a2", ["omega", "--table", A4A2, "--element", "0"]),
    ("19_enumerate_2", ["enumerate", "--order", "2", "--count-only"]),
    ("20_enumerate_3_all", ["enumerate", "--order", "3", "--count-only", "--all-tables"]),
    ("21_entropy_full", ["entropy", "--lang", "(a|b)*"]),
    ("22_primitive_tm", ["primitive", "--substitution", "a->ab; b->ba"]),
]


class TestGolden:
    @pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
    def test_byte_stable_and_matches_golden(self, name, argv, capsys):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, "output not byte-stable across runs"
        golden = (GOLDEN / f"{name}.json").read_text()
        assert first == golden

    @pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS[:3], ids=[n for n, _ in GOLDEN_COMMANDS[:3]])
    def test_payload_reparses(self, name, argv, capsys):
        main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "profinite-kit/v1"
        assert payload["status"] in ("ok", "error")
        assert isinstance(payload["data"], dict)
        assert isinstance(payload["diagnostics"], list)


class TestExamples:
    def test_separate_example(self, capsys):
        main(["separate", "--word", "ba", "--lang", "(ab)+"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["separable"] is True

    def test_member_example(self, capsys):
        main(["member", "--table", C2, "--pv", "A"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["member"] is False
        assert payload["data"]["witness"]["assignment"] == {"x": 1}

    def test_enumerate_example(self, capsys):
        main(["enumerate", "--order", "3", "--count-only"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["count"] == 24

    def test_text_format(self, capsys):
        code = main(["--format", "text", "omega", "--table", U1, "--element", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega: 1" in out and "{" not in out


class TestErrors:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["nosuch"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["member", "--table", C2]) == 2

    def test_malformed_table_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2, "table": [[0, 3], [1, 1]]}')
        assert main(["member", "--table", str(bad), "--pv", "A"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "3" in payload["data"]["error"]

    def test_missing_file_is_domain_error(self, capsys):
        assert main(["kernel", "--table", "/nonexistent/t.json"]) == 1

    def test_bad_regex_reports_position(self, capsys):
        assert main(["syntactic", "--lang", "(("]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "offset 2" in payload["data"]["error"]

    @pytest.mark.parametrize("argv", [
        ["pointlike", "--table", C2, "--set", "9"],
        ["inevitable", "--table", C2, "--system", "loop", "--y", "9"],
        ["inevitable", "--table", C2, "--system", "two-vertex", "--targets", "0,9"],
    ], ids=["pointlike", "inevitable_loop", "inevitable_two_vertex"])
    def test_out_of_range_element_is_domain_error(self, argv, capsys):
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "element 9" in payload["data"]["error"]

    @pytest.mark.parametrize("u, v, pv", [("aa", "aaa", "A"), ("ab", "ba", "G")])
    def test_max_order_past_enumeration_limit(self, u, v, pv, capsys):
        argv = ["metric", "--u", u, "--v", v, "--pv", pv, "--max-order", "6"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "max_order" in payload["data"]["error"]

    def test_run_returns_command_result(self):
        result = run(["enumerate", "--order", "1", "--count-only"])
        assert isinstance(result, CommandResult)
        assert result.status == "ok" and result.data["count"] == 1

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "profinite_kit.cli", "enumerate", "--order", "2",
             "--count-only"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["data"]["count"] == 5
