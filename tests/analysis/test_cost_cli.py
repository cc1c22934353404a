"""The driver's rendering of the ``CC`` findings (through ``typecheck``,
the one plan subcommand) and its ``ratchet`` subcommand: discovery,
formats, and the shared analysis exit-code contract."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.plans import check_paths

FIXTURES = Path(__file__).with_name("ratchet_fixtures")
BASELINE = FIXTURES / "baseline"
REGRESSED = FIXTURES / "regressed"

PLAN = """\
from repro import DataContext, UserContext, Wrangler
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource

SCHEMA = Schema((
    Attribute("product", DataType.STRING, required=True),
    Attribute("price", DataType.CURRENCY),
))

ROWS = [
    {"product": "anvil", "price": "$12.00"},
    {"product": "rope", "price": "$3.50"},
]


def build_wrangler():
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(MemorySource("shop", ROWS, cost_per_access=2.0))
    return wrangler
"""

# A master-data key the data context has no table for: PV007, an error
# the gate refuses the plan for.
REFUSED_PLAN = PLAN.replace(
    "Wrangler(user, DataContext())",
    "Wrangler(user, DataContext(), master_key=\"catalog\")",
)


@pytest.fixture()
def plan_module(tmp_path):
    target = tmp_path / "affordable_plan.py"
    target.write_text(PLAN)
    return target


@pytest.fixture()
def refused_module(tmp_path):
    target = tmp_path / "refused_plan.py"
    target.write_text(REFUSED_PLAN)
    return target


class TestCertifyMode:
    """``typecheck`` renders the CC findings with the rest of the gate's."""

    def test_affordable_plan_exits_zero(self, plan_module, capsys):
        assert main(["typecheck", str(plan_module)]) == 0
        out = capsys.readouterr().out
        assert "info [CC006] estimated access cost 2.40 " in out
        assert "found 1 (0 error, 0 warning, 1 info)" in out

    def test_refused_plan_exits_one(self, refused_module, capsys):
        assert main(["typecheck", str(refused_module)]) == 1
        assert "PV007" in capsys.readouterr().out

    def test_findings_are_reanchored_to_the_plan_module(
        self, plan_module, capsys
    ):
        main(["typecheck", str(plan_module)])
        assert "affordable_plan.py::plan: info [CC006]" in (
            capsys.readouterr().out
        )

    def test_unknown_path_exits_two(self, capsys):
        assert main(["typecheck", "does/not/exist.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, tmp_path, capsys):
        target = tmp_path / "not_a_plan.py"
        target.write_text("x = 1\n")
        assert main(["typecheck", str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_directory_skips_non_plan_modules(self, tmp_path, capsys):
        (tmp_path / "helper.py").write_text("x = 1\n")
        (tmp_path / "plan.py").write_text(PLAN)
        assert main(["typecheck", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "helper.py" in err and "skipped" in err

    def test_json_report_shape(self, plan_module, capsys):
        assert main(["typecheck", str(plan_module), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (note,) = payload["diagnostics"]
        assert (note["rule"], note["severity"]) == ("CC006", "info")
        assert payload["summary"]["infos"] == 1
        assert payload["summary"]["checked_files"] == 1

    def test_custom_entry_point(self, tmp_path):
        target = tmp_path / "named.py"
        target.write_text(PLAN.replace("build_wrangler", "make_it"))
        assert main(["typecheck", str(target), "--entry", "make_it"]) == 0

    def test_check_paths_counts_and_reports(self, plan_module):
        result = check_paths([str(plan_module)])
        assert result.checked_plans == 1
        assert result.ok
        assert [d.rule for d in result.diagnostics] == ["CC006"]

    def test_list_rules(self, capsys):
        assert main(["typecheck", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PV007", "TC001", "CC004", "CC006"):
            assert rule_id in out
        for retired in (
            "CC001", "CC002", "CC003", "CC005", "CC007", "CC008", "CC009",
        ):
            assert retired not in out

    def test_cost_subcommand_is_gone(self, plan_module, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["cost", str(plan_module)])
        assert exit_.value.code == 2


class TestRatchetMode:
    def test_passing_ratchet_exits_zero(self, capsys):
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys):
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED)]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self):
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED), "--tolerance", "0.25"]
        ) == 0

    def test_missing_baseline_dir_exits_two(self, tmp_path, capsys):
        assert main(
            ["ratchet", "--baseline", str(tmp_path / "nope"),
             "--fresh", str(tmp_path)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, capsys):
        main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_check_baselines_passes_when_benchmarks_exist(
        self, tmp_path
    ):
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        (benches / "bench_synthetic.py").write_text(
            'emit("BENCH_synthetic", "...")\n', encoding="utf-8"
        )
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches)]
        ) == 0

    def test_orphan_baseline_fails_the_gate(self, tmp_path, capsys):
        benches = tmp_path / "benchmarks"
        benches.mkdir()  # no bench_*.py mentions BENCH_synthetic
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches)]
        )
        assert code == 1
        assert "orphan baseline" in capsys.readouterr().out

    def test_orphans_surface_in_json_output(self, tmp_path, capsys):
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches),
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["orphan_baselines"] == ["BENCH_synthetic.json"]

    def test_missing_benchmarks_dir_is_a_usage_error(
        self, tmp_path, capsys
    ):
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(tmp_path / "nowhere")]
        ) == 2
        assert "error:" in capsys.readouterr().err
