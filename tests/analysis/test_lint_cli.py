"""The driver's ``lint`` subcommand: formats, rule selection, and the
exit-code contract."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.errors import AnalysisError


@pytest.fixture()
def bad_module(tmp_path):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def f(x, acc=[]):\n"
        "    assert x\n"
        "    print(x)\n"
        "    return acc\n"
    )
    return target


@pytest.fixture()
def clean_module(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text('"""Clean module."""\n\nVALUE = 1\n')
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_module, capsys):
        assert main(["lint", str(clean_module)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_one(self, bad_module, capsys):
        assert main(["lint", str(bad_module)]) == 1
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP003", "REP010"):
            assert rule_id in out

    def test_unknown_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/path-at-all"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, clean_module, capsys):
        assert main(["lint", str(clean_module), "--select", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["calibrate"])
        assert usage.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFormats:
    def test_json_report_shape(self, bad_module, capsys):
        assert main(["lint", str(bad_module), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 3
        assert payload["summary"]["checked_files"] == 1
        rules = {row["rule"] for row in payload["diagnostics"]}
        assert {"REP001", "REP003", "REP010"} <= rules
        first = payload["diagnostics"][0]
        assert {"rule", "severity", "file", "line", "message", "fix_hint"} <= set(first)

    def test_text_report_has_locations_and_summary(self, bad_module, capsys):
        main(["lint", str(bad_module)])
        out = capsys.readouterr().out
        assert "bad.py:2:" in out  # file:line:col anchors
        assert "found" in out and "error" in out

    def test_select_restricts_rules(self, bad_module, capsys):
        assert main(["lint", str(bad_module), "--select", "REP010"]) == 1
        out = capsys.readouterr().out
        assert "REP010" in out
        assert "REP001" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (f"REP{n:03d}" for n in range(1, 11)):
            assert rule_id in out


class TestEngineEdgeCases:
    def test_syntax_error_is_analysis_error(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        from repro.analysis.lint import lint_paths

        with pytest.raises(AnalysisError):
            lint_paths([str(broken)])

    def test_directory_discovery_recurses(self, tmp_path, capsys):
        nested = tmp_path / "pkg" / "sub"
        nested.mkdir(parents=True)
        (nested / "mod.py").write_text("assert True\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "REP001" in capsys.readouterr().out
