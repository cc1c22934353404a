"""The driver's ``typecheck`` subcommand: discovery, formats, and the
exit-code contract."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.plans import check_paths
from repro.errors import AnalysisError

CLEAN_PLAN = """\
from repro import DataContext, UserContext, Wrangler
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource

SCHEMA = Schema((
    Attribute("product", DataType.STRING, required=True),
    Attribute("price", DataType.CURRENCY),
))


def build_wrangler():
    user = UserContext(
        "u", SCHEMA, weights={Dimension.ACCURACY: 1.0}, budget=10.0
    )
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(MemorySource("shop", [
        {"product": "anvil", "price": "$12.00"},
        {"product": "rope", "price": "$3.50"},
    ]))
    return wrangler
"""

# master_key without master data: a PV007 error the gate reports.
BROKEN_PLAN = CLEAN_PLAN.replace(
    "Wrangler(user, DataContext())",
    'Wrangler(user, DataContext(), master_key="catalog")',
)


@pytest.fixture()
def clean_plan(tmp_path):
    target = tmp_path / "clean_plan.py"
    target.write_text(CLEAN_PLAN)
    return target


@pytest.fixture()
def broken_plan(tmp_path):
    target = tmp_path / "broken_plan.py"
    target.write_text(BROKEN_PLAN)
    return target


class TestExitCodes:
    def test_clean_plan_exits_zero(self, clean_plan, capsys):
        assert main(["typecheck", str(clean_plan)]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out

    def test_gate_errors_exit_one(self, broken_plan, capsys):
        assert main(["typecheck", str(broken_plan)]) == 1
        assert "PV007" in capsys.readouterr().out

    def test_unknown_path_exits_two(self, capsys):
        assert main(["typecheck", "/no/such/path-at-all"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, tmp_path, capsys):
        target = tmp_path / "not_a_plan.py"
        target.write_text("VALUE = 1\n")
        assert main(["typecheck", str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_unimportable_module_exits_two(self, tmp_path, capsys):
        target = tmp_path / "exploding.py"
        target.write_text("raise RuntimeError('boom')\n")
        assert main(["typecheck", str(target)]) == 2
        assert "boom" in capsys.readouterr().err


class TestDiscovery:
    def test_directory_skips_non_plan_modules(self, tmp_path, capsys):
        (tmp_path / "clean_plan.py").write_text(CLEAN_PLAN)
        (tmp_path / "helper.py").write_text("VALUE = 1\n")
        assert main(["typecheck", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "helper.py" in captured.err and "skipped" in captured.err

    def test_custom_entry_point(self, tmp_path):
        target = tmp_path / "named.py"
        target.write_text(CLEAN_PLAN.replace("build_wrangler", "make_it"))
        result = check_paths([str(target)], entry="make_it")
        assert result.checked_plans == 1
        with pytest.raises(AnalysisError):
            check_paths([str(target)])  # default entry absent


class TestFormats:
    def test_json_report_shape(self, broken_plan, capsys):
        assert main(["typecheck", str(broken_plan), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        rules = {row["rule"] for row in payload["diagnostics"]}
        assert "PV007" in rules

    def test_findings_reanchored_to_plan_module(self, broken_plan, capsys):
        main(["typecheck", str(broken_plan)])
        assert "broken_plan.py::" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["typecheck", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("TC001", "TC007", "TC008", "TC009"):
            assert rule_id in out
        for retired in ("TC002", "TC003", "TC004", "TC005", "TC006"):
            assert retired not in out
