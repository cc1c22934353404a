"""The cost certifier folded into the pre-execution gate: over-budget
plans are refused through the same machinery as PV/TC findings."""

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.core.wrangler import Wrangler
from repro.errors import PlanValidationError
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


def make_wrangler(cost=1.0, **kwargs):
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext(), **kwargs)
    wrangler.add_source(
        MemorySource("shop", ROWS, cost_per_access=cost)
    )
    return wrangler


class TestBudgetDeclaration:
    def test_budget_is_fluent_and_clearable(self):
        wrangler = make_wrangler()
        assert wrangler.budget(10.0) is wrangler
        assert wrangler._cost_budget == 10.0
        wrangler.budget(None)
        assert wrangler._cost_budget is None

    def test_negative_budget_is_rejected_at_declaration(self):
        with pytest.raises(ValueError):
            make_wrangler().budget(-1.0)


class TestPreflightFoldsCostFindings:
    def test_over_budget_plan_is_refused_with_cc005(self):
        wrangler = make_wrangler(cost=5.0).budget(0.5)
        report = wrangler.preflight()
        assert "CC005" in report.rule_ids()
        assert not report.ok
        with pytest.raises(PlanValidationError):
            wrangler.run()

    def test_generous_budget_admits_the_same_plan(self):
        wrangler = make_wrangler(cost=5.0).budget(100.0)
        report = wrangler.preflight()
        assert "CC005" not in report.rule_ids()
        result = wrangler.run()
        assert len(result.table) > 0

    def test_unbudgeted_plan_still_runs(self):
        # CC006 (no budget anywhere) is INFO severity: below the gate's
        # warning floor, so an undeclared budget never blocks a run.
        wrangler = make_wrangler()
        report = wrangler.preflight()
        assert "CC006" not in report.rule_ids()
        assert report.ok

    def test_cost_certifier_needs_plan_and_registry(self, gate):
        # Gate callers that validate bare plans (no registry) get the
        # PV/TC checks only — no cost estimates can exist without
        # registered sources to estimate from.
        plan = WranglePlan(
            sources=["shop"],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=0.8,
            fusion_strategy="weighted",
        )
        user = UserContext("u", SCHEMA)
        report = gate(plan=plan, user=user, cost_budget=0.0)
        assert not any(r.startswith("CC") for r in report.rule_ids())

    def test_preflight_annotates_dataflow_with_predicted_seconds(self):
        wrangler = make_wrangler()
        wrangler.preflight()
        costs = wrangler.flow.cost_map()
        annotated = {k: v for k, v in costs.items() if v is not None}
        assert annotated  # the certifier wrote estimates onto the flow
        stats = wrangler.flow.node_stats()
        assert any(s.get("cost") is not None for s in stats.values())
