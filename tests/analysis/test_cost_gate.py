"""The cost checks folded into the pre-execution gate: their findings
join the same report as PV/TC findings, info severity included."""

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
        # CC006 (an unbounded user budget) is INFO severity: reported,
        # but an unbounded budget never blocks a run.
        wrangler = make_wrangler()
        report = wrangler.preflight()
        assert "CC006" in report.rule_ids()
        assert report.ok
        assert len(wrangler.run().table) == 3

    def test_cost_checks_need_plan_and_registry(self, gate):
        # The checks read the plan's sources and the registered sources'
        # costs: one planned source at cost 1.0, probed at its fraction.
        plan = WranglePlan(
            sources=["shop"],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=0.8,
            fusion_strategy="weighted",
        )
        report = gate(plan=plan, user=UserContext("u", SCHEMA, budget=5.0))
        assert not any(r.startswith("CC") for r in report.rule_ids())
        report = gate(plan=plan, user=UserContext("u", SCHEMA))
        (note,) = [d for d in report.diagnostics if d.rule == "CC006"]
        assert "estimated access cost 1.20 " in note.message
