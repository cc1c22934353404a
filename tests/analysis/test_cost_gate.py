"""The cost certifier folded into the pre-execution gate: its findings
join the same report as PV/TC findings."""

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.core.wrangler import Wrangler
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
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
    {"product": "crate", "price": "$7.25"},
]


def make_wrangler():
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(MemorySource("shop", ROWS))
    return wrangler


class TestPreflightFoldsCostFindings:
    def test_unbudgeted_plan_still_runs(self):
        # CC006 (an unbounded user budget) is INFO severity: below the
        # gate's warning floor, so an unbounded budget never blocks a run.
        wrangler = make_wrangler()
        report = wrangler.preflight()
        assert "CC006" not in report.rule_ids()
        assert report.ok

    def test_cost_certifier_needs_plan_and_registry(self, gate):
        # The gate always has both (every ``run_preflight`` argument up
        # to ``working`` is required), so every report carries a cost
        # certificate estimated from the registered sources.
        plan = WranglePlan(
            sources=["shop"],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=0.8,
            fusion_strategy="weighted",
        )
        user = UserContext("u", SCHEMA)
        report = gate(plan=plan, user=user)
        assert report.cost is not None
        assert report.cost.estimates["acquire:shop"].access_cost == 1.0
        assert not any(r.startswith("CC") for r in report.rule_ids())

    def test_preflight_annotates_dataflow_with_predicted_seconds(self):
        wrangler = make_wrangler()
        wrangler.preflight()
        costs = wrangler.flow.cost_map()
        annotated = {k: v for k, v in costs.items() if v is not None}
        assert annotated  # the certifier wrote estimates onto the flow
        stats = wrangler.flow.node_stats()
        assert any(s.get("cost") is not None for s in stats.values())
