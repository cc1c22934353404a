"""Every framework lint rule: a positive case and a suppressed case.

Each test feeds the engine a minimal module source that violates exactly
one rule, asserts the rule id fires, then re-runs the same source with a
``# repro: noqa[RULE]`` comment on the offending line and asserts the
finding is suppressed.
"""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.lint import lint_source
from repro.analysis.rules import RULES, LAYER_RANKS


def rule_ids(result):
    return sorted({d.rule for d in result.diagnostics})


def assert_fires_then_suppresses(source, rule_id, suppressed_source, **kwargs):
    fired = lint_source(source, **kwargs)
    assert rule_id in rule_ids(fired), (
        f"{rule_id} did not fire; got {rule_ids(fired)}"
    )
    quiet = lint_source(suppressed_source, **kwargs)
    assert rule_id not in rule_ids(quiet)
    assert quiet.suppressed >= 1
    return fired


class TestRegistry:
    def test_at_least_ten_rules(self):
        assert len(RULES) >= 10

    def test_rule_ids_are_stable_and_distinct(self):
        assert sorted(RULES) == [f"REP{n:03d}" for n in range(1, len(RULES) + 1)]

    def test_every_rule_has_description_and_severity(self):
        for rule in RULES.values():
            assert rule.description
            assert isinstance(rule.severity, Severity)


class TestRep001BareAssert:
    def test_fires_and_suppresses(self):
        assert_fires_then_suppresses(
            "def f(x):\n    assert x > 0\n    return x\n",
            "REP001",
            "def f(x):\n    assert x > 0  # repro: noqa[REP001]\n    return x\n",
        )


class TestRep002BroadExcept:
    def test_except_exception_fires(self):
        assert_fires_then_suppresses(
            "try:\n    pass\nexcept Exception:\n    pass\n",
            "REP002",
            "try:\n    pass\nexcept Exception:  # repro: noqa[REP002]\n    pass\n",
        )

    def test_bare_except_fires(self):
        result = lint_source("try:\n    pass\nexcept:\n    pass\n")
        assert "REP002" in rule_ids(result)

    def test_tuple_with_exception_fires(self):
        result = lint_source(
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        )
        assert "REP002" in rule_ids(result)

    def test_precise_handler_clean(self):
        result = lint_source(
            "try:\n    pass\nexcept ValueError:\n    pass\n"
        )
        assert "REP002" not in rule_ids(result)


class TestRep003MutableDefault:
    def test_list_literal_fires(self):
        assert_fires_then_suppresses(
            "def f(items=[]):\n    return items\n",
            "REP003",
            "def f(items=[]):  # repro: noqa[REP003]\n    return items\n",
        )

    def test_dict_call_fires(self):
        result = lint_source("def f(table=dict()):\n    return table\n")
        assert "REP003" in rule_ids(result)

    def test_none_default_clean(self):
        result = lint_source("def f(items=None):\n    return items\n")
        assert "REP003" not in rule_ids(result)


class TestRep004EvidenceConfidence:
    def test_positional_literal_fires(self):
        assert_fires_then_suppresses(
            "e = Evidence('name', 1.5)\n",
            "REP004",
            "e = Evidence('name', 1.5)  # repro: noqa[REP004]\n",
        )

    def test_keyword_negative_literal_fires(self):
        result = lint_source("e = Evidence(kind='x', confidence=-0.2)\n")
        assert "REP004" in rule_ids(result)

    def test_in_range_literal_clean(self):
        result = lint_source("e = Evidence('name', 0.7)\n")
        assert "REP004" not in rule_ids(result)

    def test_non_literal_clean(self):
        result = lint_source("e = Evidence('name', score)\n")
        assert "REP004" not in rule_ids(result)


class TestRep005PureLayerDeterminism:
    PATH = "src/repro/model/example.py"

    def test_random_import_fires_in_model(self):
        assert_fires_then_suppresses(
            "import random\n",
            "REP005",
            "import random  # repro: noqa[REP005]\n",
            path=self.PATH,
        )

    def test_wall_clock_fires_in_quality(self):
        # The clock read is REP011's, in the pure layers as everywhere.
        result = lint_source(
            "import datetime\nnow = datetime.datetime.now()\n",
            path="src/repro/quality/example.py",
        )
        assert rule_ids(result) == ["REP011"]

    @pytest.mark.parametrize("layer", ["model", "quality"])
    def test_no_line_carries_both_rep005_and_rep011(self, layer):
        result = lint_source(
            "import datetime\nimport random\n"
            "now = datetime.datetime.now()\ntoday = datetime.date.today()\n",
            path=f"src/repro/{layer}/example.py",
        )
        rules_by_line = {}
        for finding in result.diagnostics:
            rules_by_line.setdefault(finding.location.line, set()).add(
                finding.rule
            )
        assert rules_by_line == {
            2: {"REP005"}, 3: {"REP011"}, 4: {"REP011"},
        }

    def test_random_fine_outside_pure_layers(self):
        result = lint_source("import random\n", path="src/repro/datagen/x.py")
        assert "REP005" not in rule_ids(result)


class TestRep006AllConsistency:
    def test_undefined_export_fires(self):
        assert_fires_then_suppresses(
            "__all__ = ['missing']\n",
            "REP006",
            "__all__ = ['missing']  # repro: noqa[REP006]\n",
        )

    def test_unexported_public_def_is_info(self):
        result = lint_source(
            "__all__ = ['f']\n\ndef f():\n    pass\n\ndef g():\n    pass\n"
        )
        infos = [d for d in result.diagnostics if d.rule == "REP006"]
        assert len(infos) == 1
        assert infos[0].severity is Severity.INFO

    def test_module_getattr_permits_lazy_exports(self):
        result = lint_source(
            "__all__ = ['lazy']\n\ndef __getattr__(name):\n    return 1\n"
        )
        errors = [
            d
            for d in result.diagnostics
            if d.rule == "REP006" and d.severity is Severity.ERROR
        ]
        assert errors == []


class TestRep007LayerImportOrder:
    def test_model_importing_core_fires(self):
        assert_fires_then_suppresses(
            "from repro.core.wrangler import Wrangler\n",
            "REP007",
            "from repro.core.wrangler import Wrangler  # repro: noqa[REP007]\n",
            path="src/repro/model/example.py",
        )

    def test_core_importing_model_clean(self):
        result = lint_source(
            "from repro.model.records import Table\n",
            path="src/repro/core/example.py",
        )
        assert "REP007" not in rule_ids(result)

    def test_type_checking_guard_exempt(self):
        result = lint_source(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.wrangler import Wrangler\n",
            path="src/repro/model/example.py",
        )
        assert "REP007" not in rule_ids(result)

    def test_sources_importing_ingest_is_an_inversion(self):
        # The dependency runs sources → ingest only: fetch_delta's cursor
        # types live in sources/, the journal that stores them above it.
        assert_fires_then_suppresses(
            "from repro.ingest import Watermark\n",
            "REP007",
            "from repro.ingest import Watermark  # repro: noqa[REP007]\n",
            path="src/repro/sources/example.py",
        )
        result = lint_source(
            "from repro.sources.cursor import Watermark\n",
            path="src/repro/ingest/example.py",
        )
        assert "REP007" not in rule_ids(result)

    def test_rank_table_covers_every_package(self):
        for layer in (
            "errors", "model", "context", "sources", "core", "analysis",
            "fusion", "resolution", "quality", "repro", "__main__",
        ):
            assert layer in LAYER_RANKS


class TestRep008PublicClassDocstring:
    def test_missing_docstring_fires(self):
        assert_fires_then_suppresses(
            "class Thing:\n    pass\n",
            "REP008",
            "class Thing:  # repro: noqa[REP008]\n    pass\n",
        )

    def test_private_class_exempt(self):
        result = lint_source("class _Internal:\n    pass\n")
        assert "REP008" not in rule_ids(result)

    def test_documented_class_clean(self):
        result = lint_source('class Thing:\n    """Docs."""\n')
        assert "REP008" not in rule_ids(result)


class TestRep009DiscardedResult:
    def test_discarded_with_raw_fires(self):
        assert_fires_then_suppresses(
            "value.with_raw(1, step, 'x')\n",
            "REP009",
            "value.with_raw(1, step, 'x')  # repro: noqa[REP009]\n",
        )

    def test_discarded_pool_evidence_fires(self):
        result = lint_source("pool_evidence(items)\n")
        assert "REP009" in rule_ids(result)

    def test_assigned_result_clean(self):
        result = lint_source("new = value.with_raw(1, step, 'x')\n")
        assert "REP009" not in rule_ids(result)


class TestRep010NoPrint:
    def test_print_fires_in_library(self):
        assert_fires_then_suppresses(
            "print('hello')\n",
            "REP010",
            "print('hello')  # repro: noqa[REP010]\n",
            path="src/repro/core/example.py",
        )

    def test_main_module_exempt(self):
        result = lint_source(
            "print('hello')\n", path="src/repro/__main__.py"
        )
        assert "REP010" not in rule_ids(result)


class TestRep011ClockReadsViaObs:
    PATH = "src/repro/core/example.py"

    def test_time_time_fires(self):
        assert_fires_then_suppresses(
            "import time\nstart = time.time()\n",
            "REP011",
            "import time\nstart = time.time()  # repro: noqa[REP011]\n",
            path=self.PATH,
        )

    def test_perf_counter_import_fires(self):
        result = lint_source(
            "from time import perf_counter\n", path=self.PATH
        )
        assert "REP011" in rule_ids(result)

    def test_datetime_now_fires(self):
        result = lint_source(
            "import datetime\nnow = datetime.datetime.now()\n",
            path=self.PATH,
        )
        assert "REP011" in rule_ids(result)

    def test_aliased_date_today_fires(self):
        result = lint_source(
            "import datetime as _dt\ntoday = _dt.date.today()\n",
            path=self.PATH,
        )
        assert "REP011" in rule_ids(result)

    def test_obs_layer_exempt(self):
        result = lint_source(
            "import time\nstart = time.perf_counter()\n",
            path="src/repro/obs/clock.py",
        )
        assert "REP011" not in rule_ids(result)

    def test_clock_abstraction_clean(self):
        result = lint_source(
            "from repro.obs import system_clock\n"
            "start = system_clock.current_time()\n",
            path=self.PATH,
        )
        assert "REP011" not in rule_ids(result)


class TestRep012UnknownNoqaRule:
    def test_unknown_rule_id_warns(self):
        result = lint_source("x = 1  # repro: noqa[REP999]\n")
        assert "REP012" in rule_ids(result)
        (finding,) = [d for d in result.diagnostics if d.rule == "REP012"]
        assert finding.severity is Severity.WARNING
        assert "REP999" in finding.message
        assert finding.location.line == 1

    def test_typoed_rule_in_a_list_warns(self):
        # One valid id, one typo: the pragma silently half-works — the
        # exact failure mode REP012 exists to surface.
        result = lint_source(
            "assert x  # repro: noqa[REP001, REP01]\n"
        )
        assert "REP012" in rule_ids(result)
        assert "REP001" not in rule_ids(result)  # valid half still works

    def test_known_rule_ids_are_silent(self):
        result = lint_source("x = 1  # repro: noqa[REP001]\n")
        assert "REP012" not in rule_ids(result)

    def test_blanket_noqa_is_silent(self):
        result = lint_source("x = 1  # repro: noqa\n")
        assert "REP012" not in rule_ids(result)

    def test_suppressing_rep012_itself(self):
        result = lint_source("x = 1  # repro: noqa[REP999, REP012]\n")
        assert "REP012" not in rule_ids(result)
        assert result.suppressed == 1


class TestRep013NoRawSleep:
    PATH = "src/repro/core/example.py"

    def test_time_sleep_fires(self):
        assert_fires_then_suppresses(
            "import time\ntime.sleep(0.5)\n",
            "REP013",
            "import time\ntime.sleep(0.5)  # repro: noqa[REP013]\n",
            path=self.PATH,
        )

    def test_sleep_import_fires(self):
        result = lint_source("from time import sleep\n", path=self.PATH)
        assert "REP013" in rule_ids(result)

    def test_imported_sleep_call_fires(self):
        result = lint_source(
            "from time import sleep\nsleep(1)\n", path=self.PATH
        )
        findings = [d for d in result.diagnostics if d.rule == "REP013"]
        # Both the import and the call are flagged.
        assert len(findings) == 2

    def test_aliased_time_module_fires(self):
        result = lint_source(
            "import time as _t\n_t.sleep(0.1)\n", path=self.PATH
        )
        assert "REP013" in rule_ids(result)

    def test_busy_wait_loop_fires(self):
        assert_fires_then_suppresses(
            "while not ready():\n    pass\n",
            "REP013",
            "while not ready():  # repro: noqa[REP013]\n    pass\n",
            path=self.PATH,
        )

    def test_working_while_loop_is_clean(self):
        result = lint_source(
            "while items:\n    items.pop()\n", path=self.PATH
        )
        assert "REP013" not in rule_ids(result)

    def test_obs_layer_exempt(self):
        # SystemClock.wait hosts the framework's single real sleep.
        result = lint_source(
            "import time\ntime.sleep(0.1)\n",
            path="src/repro/obs/clock.py",
        )
        assert "REP013" not in rule_ids(result)

    def test_resilience_layer_exempt(self):
        result = lint_source(
            "import time\ntime.sleep(0.1)\n",
            path="src/repro/resilience/policy.py",
        )
        assert "REP013" not in rule_ids(result)

    def test_clock_wait_is_clean(self):
        result = lint_source(
            "from repro.obs import ManualClock\n"
            "clock = ManualClock()\n"
            "clock.wait(5.0)\n",
            path=self.PATH,
        )
        assert "REP013" not in rule_ids(result)


class TestRep014NoSharedRng:
    PATH = "src/repro/core/example.py"

    def test_module_rng_call_fires(self):
        assert_fires_then_suppresses(
            "import random\nx = random.choice([1, 2])\n",
            "REP014",
            "import random\n"
            "x = random.choice([1, 2])  # repro: noqa[REP014]\n",
            path=self.PATH,
        )

    def test_rng_import_from_fires(self):
        result = lint_source("from random import shuffle\n", path=self.PATH)
        assert "REP014" in rule_ids(result)

    def test_imported_rng_call_fires_twice(self):
        result = lint_source(
            "from random import shuffle\nshuffle(xs)\n", path=self.PATH
        )
        findings = [d for d in result.diagnostics if d.rule == "REP014"]
        # Both the import and the call are flagged.
        assert len(findings) == 2

    def test_aliased_random_module_fires(self):
        result = lint_source(
            "import random as rnd\nrnd.seed(0)\n", path=self.PATH
        )
        assert "REP014" in rule_ids(result)

    def test_seeded_random_instance_is_clean(self):
        result = lint_source(
            "import random\n"
            "rng = random.Random(7)\n"
            "value = rng.choice([1, 2])\n",
            path=self.PATH,
        )
        assert "REP014" not in rule_ids(result)

    def test_random_class_import_is_clean(self):
        result = lint_source(
            "from random import Random, SystemRandom\n", path=self.PATH
        )
        assert "REP014" not in rule_ids(result)

    def test_datagen_layer_exempt(self):
        result = lint_source(
            "import random\nx = random.gauss(0, 1)\n",
            path="src/repro/datagen/worlds.py",
        )
        assert "REP014" not in rule_ids(result)


class TestImportForms:
    """Each import form the clock, sleep and RNG rules resolve: the
    ``(rule, line)`` findings are the ones the rules reported when each
    built its own alias table."""

    @pytest.mark.parametrize(
        "path, source, expected",
        [
            (
                "src/repro/core/example.py",
                "import time as t\nt.sleep(1)\nstart = t.perf_counter()\n",
                {("REP013", 2), ("REP011", 3)},
            ),
            (
                "src/repro/core/example.py",
                "from time import sleep as nap\nnap(1)\n",
                {("REP013", 1), ("REP013", 2)},
            ),
            (
                "src/repro/core/example.py",
                "import datetime as _dt\ntoday = _dt.date.today()\n",
                {("REP011", 2)},
            ),
            (
                "src/repro/core/example.py",
                "from datetime import datetime\nnow = datetime.now()\n",
                {("REP011", 2)},
            ),
            (
                "src/repro/core/example.py",
                "import random as r\nx = r.choice([1, 2])\n",
                {("REP014", 2)},
            ),
            (
                "src/repro/core/example.py",
                "from random import Random\nx = Random(7).choice([1, 2])\n",
                set(),
            ),
            (
                "src/repro/model/example.py",
                "from random import Random\nx = Random(7).choice([1, 2])\n",
                {("REP005", 1)},
            ),
        ],
    )
    def test_findings_per_import_form(self, path, source, expected):
        result = lint_source(source, path=path)
        assert {
            (finding.rule, finding.location.line)
            for finding in result.diagnostics
        } == expected


class TestSuppressionSyntax:
    def test_blanket_noqa_suppresses_all_rules(self):
        result = lint_source("assert print('x')  # repro: noqa\n")
        assert result.diagnostics == ()
        assert result.suppressed >= 2

    def test_noqa_for_other_rule_does_not_suppress(self):
        result = lint_source("assert x  # repro: noqa[REP010]\n")
        assert "REP001" in rule_ids(result)

    def test_multiple_rules_in_one_noqa(self):
        result = lint_source(
            "assert print('x')  # repro: noqa[REP001, REP010]\n"
        )
        assert result.diagnostics == ()


class TestSelfHosting:
    def test_repo_tree_is_clean(self):
        """The shipped tree passes its own linter with zero errors."""
        import pathlib

        import repro
        from repro.analysis.lint import lint_paths

        result = lint_paths([str(pathlib.Path(repro.__file__).parent)])
        errors = [
            d for d in result.diagnostics if d.severity is Severity.ERROR
        ]
        assert errors == []
        assert result.ok
        assert result.exit_code == 0


class TestRep015BenchTelemetryRequired:
    BENCH_PATH = "benchmarks/bench_sample.py"

    def test_no_telemetry_fires(self):
        assert_fires_then_suppresses(
            "from helpers import emit\nemit('E0-sample', 'table')\n",
            "REP015",
            "from helpers import emit  # repro: noqa[REP015]\n"
            "emit('E0-sample', 'table')\n",
            path=self.BENCH_PATH,
        )

    def test_raw_print_fires(self):
        result = lint_source(
            "from helpers import emit_telemetry, bench_telemetry\n"
            "t = bench_telemetry()\n"
            "print('done')\n"
            "emit_telemetry('E0-sample', t.snapshot())\n",
            path=self.BENCH_PATH,
        )
        assert "REP015" in rule_ids(result)

    def test_telemetry_benchmark_clean(self):
        result = lint_source(
            "from helpers import emit, emit_telemetry, timed,"
            " bench_telemetry\n"
            "t = bench_telemetry()\n"
            "value, seconds = timed(t, 'work', lambda: 1)\n"
            "emit('E0-sample', 'table')\n"
            "emit_telemetry('E0-sample', t.snapshot())\n",
            path=self.BENCH_PATH,
        )
        assert "REP015" not in rule_ids(result)

    def test_helpers_qualified_calls_clean(self):
        result = lint_source(
            "import helpers\n"
            "t = helpers.bench_telemetry()\n"
            "helpers.emit_telemetry('E0-sample', t.snapshot())\n",
            path=self.BENCH_PATH,
        )
        assert "REP015" not in rule_ids(result)

    def test_non_benchmark_paths_exempt(self):
        source = "print('hello')\n"
        for path in (
            "src/repro/core/wrangler.py",
            "benchmarks/helpers.py",  # not a bench_ script
            "examples/quickstart.py",
        ):
            result = lint_source(source, path=path)
            assert "REP015" not in rule_ids(result), path


class TestRep016AtomicWritesOnly:
    PATH = "src/repro/core/example.py"

    def test_open_write_mode_fires(self):
        assert_fires_then_suppresses(
            'with open("state.json", "w") as fh:\n    fh.write(data)\n',
            "REP016",
            'with open("state.json", "w") as fh:  # repro: noqa[REP016]\n'
            "    fh.write(data)\n",
            path=self.PATH,
        )

    def test_path_open_append_fires(self):
        result = lint_source(
            'path.open("a").write(line)\n', path=self.PATH
        )
        assert "REP016" in rule_ids(result)

    def test_mode_keyword_fires(self):
        result = lint_source(
            'open("f.bin", mode="wb").write(b"x")\n', path=self.PATH
        )
        assert "REP016" in rule_ids(result)

    def test_write_text_fires(self):
        result = lint_source(
            'path.write_text(json.dumps(body))\n', path=self.PATH
        )
        assert "REP016" in rule_ids(result)

    def test_read_mode_is_clean(self):
        result = lint_source(
            'open("f.txt").read()\npath.open("r").read()\n', path=self.PATH
        )
        assert "REP016" not in rule_ids(result)

    def test_non_file_open_method_is_clean(self):
        # A tracer's span opener takes string arguments that are not modes.
        result = lint_source(
            'span = tracer.open(f"prefetch:{name}", source=name)\n',
            path=self.PATH,
        )
        assert "REP016" not in rule_ids(result)

    def test_io_layer_exempt(self):
        result = lint_source(
            'path.write_text(payload)\n', path="src/repro/io.py"
        )
        assert "REP016" not in rule_ids(result)

    def test_ingest_layer_exempt(self):
        result = lint_source(
            'with open("tmp", "wb") as fh:\n    fh.write(data)\n',
            path="src/repro/ingest/checkpoint.py",
        )
        assert "REP016" not in rule_ids(result)

    def test_benchmarks_outside_architecture_are_clean(self):
        result = lint_source(
            'out.write_text(json.dumps(record))\n',
            path="benchmarks/bench_er_scale.py",
        )
        assert "REP016" not in rule_ids(result)
