"""Tests for the reprolint command line (``python -m repro.analysis`` and
``repro-experiments lint``): exit codes 0/1/2, text and JSON output, the
``--output`` artifact file, and rule selection."""

import json
import textwrap

import pytest

from repro.analysis import main as analysis_main
from repro.cli import build_parser, main as cli_main

CLEAN_SOURCE = textwrap.dedent("""
    def add(a, b):
        return a + b
""")

BAD_SOURCE = textwrap.dedent("""
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._hits = 0

        def record(self):
            with self._lock:
                self._hits += 1

        def peek(self):
            return self._hits
""")


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SOURCE, encoding="utf8")
    return path


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf8")
    return path


class TestAnalysisMain:
    def test_clean_tree_exits_zero(self, clean_file, capsys):
        assert analysis_main([str(clean_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_file, capsys):
        assert analysis_main([str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "[lock-discipline]" in out
        assert "finding" in out

    def test_missing_path_is_analyzer_error(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_is_analyzer_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n", encoding="utf8")
        assert analysis_main([str(broken)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_is_analyzer_error(self, clean_file, capsys):
        assert analysis_main([str(clean_file), "--rules", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format(self, bad_file, capsys):
        assert analysis_main([str(bad_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["findings"]
        finding = payload["findings"][0]
        assert finding["rule"] == "lock-discipline"
        assert finding["line"] > 0

    def test_output_file_written(self, bad_file, tmp_path, capsys):
        report = tmp_path / "findings.json"
        code = analysis_main(
            [str(bad_file), "--format", "json", "--output", str(report)]
        )
        assert code == 1
        payload = json.loads(report.read_text(encoding="utf8"))
        assert payload == json.loads(capsys.readouterr().out)

    def test_rule_subset_runs_only_selected(self, bad_file, capsys):
        # The bad snippet only violates lock-discipline; restricting the
        # run to the allocation rule must come back clean.
        assert analysis_main(
            [str(bad_file), "--rules", "hot-path-allocation"]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "lock-discipline",
            "hot-path-allocation",
            "cache-key-purity",
        ):
            assert name in out


class TestExperimentsLintSubcommand:
    def test_lint_parses(self):
        args = build_parser().parse_args(["lint", "src", "--format", "json"])
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.format == "json"

    def test_lint_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out.lower() or "analyzer error" in out.lower()

    def test_lint_delegates_and_propagates_exit_codes(
        self, clean_file, bad_file, capsys
    ):
        assert cli_main(["lint", str(clean_file)]) == 0
        assert cli_main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "[lock-discipline]" in out

    def test_lint_analyzer_error_exit_code(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_lint_forwards_output_and_rules(self, bad_file, tmp_path, capsys):
        report = tmp_path / "out.json"
        code = cli_main(
            [
                "lint",
                str(bad_file),
                "--format",
                "json",
                "--rules",
                "lock-discipline",
                "--output",
                str(report),
            ]
        )
        assert code == 1
        payload = json.loads(report.read_text(encoding="utf8"))
        assert payload["rules"] == ["lock-discipline"]
        capsys.readouterr()
