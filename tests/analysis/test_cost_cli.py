"""The ``CC`` findings as ``tools/typecheck.py`` renders them, and
``tools/ratchet.py``'s command line: discovery, the reports, and the
shared exit-code contract."""

import shutil
from pathlib import Path

import pytest

from conftest import load_tool

typecheck = load_tool("typecheck")
ratchet = load_tool("ratchet")
check_paths = typecheck.check_paths

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
        assert typecheck.main([str(plan_module)]) == 0
        out = capsys.readouterr().out
        assert "info [CC006] estimated access cost 2.40 " in out
        assert "found 1 (0 error, 0 warning, 1 info)" in out

    def test_refused_plan_exits_one(self, refused_module, capsys):
        assert typecheck.main([str(refused_module)]) == 1
        assert "PV007" in capsys.readouterr().out

    def test_findings_are_reanchored_to_the_plan_module(
        self, plan_module, capsys
    ):
        typecheck.main([str(plan_module)])
        assert "affordable_plan.py::plan: info [CC006]" in (
            capsys.readouterr().out
        )

    def test_unknown_path_exits_two(self, capsys):
        assert typecheck.main(["does/not/exist.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, tmp_path, capsys):
        target = tmp_path / "not_a_plan.py"
        target.write_text("x = 1\n")
        assert typecheck.main([str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_directory_skips_non_plan_modules(self, tmp_path, capsys):
        (tmp_path / "helper.py").write_text("x = 1\n")
        (tmp_path / "plan.py").write_text(PLAN)
        assert typecheck.main([str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "helper.py" in err and "skipped" in err

    def test_check_paths_counts_and_reports(self, plan_module):
        result = check_paths([str(plan_module)])
        assert result.checked_plans == 1
        assert result.ok
        assert [d.rule for d in result.diagnostics] == ["CC006"]


@pytest.fixture()
def unchanged(tmp_path):
    """A fresh-results directory holding the baseline's records as they
    are: the ratchet refuses to compare a directory with itself."""
    return shutil.copytree(BASELINE, tmp_path / "fresh")


class TestRatchetMode:
    def test_baseline_and_fresh_must_name_two_directories(self, capsys):
        with pytest.raises(SystemExit) as usage:
            ratchet.main([])  # neither flag defaults to a directory
        assert usage.value.code == 2
        capsys.readouterr()
        assert ratchet.main(
            ["--baseline", str(BASELINE), "--fresh", f"{BASELINE}/."]
        ) == 2
        assert "both name" in capsys.readouterr().err

    def test_passing_ratchet_exits_zero(self, unchanged, capsys):
        code = ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(unchanged)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys):
        code = ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(REGRESSED)]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self):
        assert ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(REGRESSED), "--tolerance", "0.25"]
        ) == 0

    def test_missing_baseline_dir_exits_two(self, tmp_path, capsys):
        assert ratchet.main(
            ["--baseline", str(tmp_path / "nope"),
             "--fresh", str(tmp_path)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_check_baselines_passes_when_benchmarks_exist(
        self, tmp_path, unchanged
    ):
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        (benches / "bench_synthetic.py").write_text(
            'emit("BENCH_synthetic", "...")\n', encoding="utf-8"
        )
        assert ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(unchanged),
             "--check-baselines", str(benches)]
        ) == 0

    def test_orphan_baseline_fails_the_gate(
        self, tmp_path, unchanged, capsys
    ):
        benches = tmp_path / "benchmarks"
        benches.mkdir()  # no bench_*.py mentions BENCH_synthetic
        code = ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(unchanged),
             "--check-baselines", str(benches)]
        )
        assert code == 1
        assert "orphan baseline" in capsys.readouterr().out

    def test_missing_benchmarks_dir_is_a_usage_error(
        self, tmp_path, unchanged, capsys
    ):
        assert ratchet.main(
            ["--baseline", str(BASELINE),
             "--fresh", str(unchanged),
             "--check-baselines", str(tmp_path / "nowhere")]
        ) == 2
        assert "no such benchmarks directory" in capsys.readouterr().err
