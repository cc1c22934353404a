"""The pre-execution gate end to end: contexts + types + cost as one
report, wired through ``Wrangler.preflight()`` and every ``Wrangler.run()``.
"""

import pytest

from repro.analysis import typecheck
from repro.analysis.typecheck import probe_artifacts, run_preflight
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.core.wrangler import Wrangler
from repro.errors import PlanValidationError
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.model.workingdata import WorkingData
from repro.sources.memory import MemorySource

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
    )
)

ROWS = [
    {"product": "anvil", "price": "$12.00"},
    {"product": "rope", "price": "$3.50"},
]


def make_wrangler(**kwargs):
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext(), **kwargs)
    wrangler.add_source(MemorySource("shop", ROWS))
    return wrangler


class TestRunPreflight:
    def test_folds_pv_and_tc_findings_into_one_report(self, gate):
        plan = WranglePlan(
            sources=["shop"],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=0.8,
            fusion_strategy="weighted",
        )
        user = UserContext("u", SCHEMA)
        # A missing master table (PV007) and no probes (TC001).
        report = gate(plan=plan, user=user, master_key="catalog")
        assert {"PV007", "TC001"} <= report.rule_ids()
        assert not report.ok

    def test_reads_probe_artifacts_from_working_data(self):
        working = WorkingData()
        working.put("schema", "probe/shop", Schema.of("product"))
        working.put("schema", "other/ignored", Schema.of("x"))
        schemas, mappings = probe_artifacts(working)
        assert set(schemas) == {"shop"}
        assert mappings == {}



class TestWranglerPreflight:
    def test_clean_wrangler_preflights_clean(self):
        report = make_wrangler().preflight()
        assert report.ok, report.render()

    def test_preflight_does_not_execute_the_pipeline(self):
        wrangler = make_wrangler()
        wrangler.preflight()
        assert not wrangler.flow.is_clean("fuse")

    def test_probe_artifacts_filed_on_the_blackboard(self):
        wrangler = make_wrangler()
        wrangler.flow.pull("probe")
        schemas, mappings = probe_artifacts(wrangler.working)
        assert "shop" in schemas
        assert "price" in schemas["shop"]
        assert mappings["shop"].source_name == "shop"


class TestRunValidateGate:
    def test_validate_true_rechecks_a_memoised_plan(self):
        wrangler = make_wrangler()
        assert len(wrangler.run().table) == 2
        # A master-data key the data context holds no table for: the
        # memoised plan's fusion prerequisite is now missing (PV007).
        wrangler.master_key = "catalog"
        # The plan node is clean, so run() has nothing to compose or
        # gate; preflight() is the way to re-gate.
        assert len(wrangler.run().table) == 2
        with pytest.raises(PlanValidationError) as failure:
            wrangler.preflight().raise_on_error()
        assert any(d.rule == "PV007" for d in failure.value.diagnostics)

    def test_default_run_still_gates_fresh_plans(self, monkeypatch):
        gated = []

        def counting(**kwargs):
            report = run_preflight(**kwargs)
            gated.append(report)
            return report

        monkeypatch.setattr(typecheck, "run_preflight", counting)
        wrangler = make_wrangler()
        result = wrangler.run()
        assert len(result.table) == 2
        assert len(gated) == 1  # the one plan the run composed
