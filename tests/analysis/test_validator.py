"""The static plan validator: every defect class caught with its rule id,
through the gate that runs it (the ``gate`` fixture)."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.validator import PlanValidator
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.dataflow import Dataflow
from repro.core.planner import WranglePlan
from repro.errors import DataflowError, PlanValidationError
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry

TARGET = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
        Attribute("updated", DataType.DATE),
    )
)


def good_plan(**overrides):
    base = dict(
        sources=["shop"],
        matcher_channels=("name", "instance"),
        match_threshold=0.6,
        er_threshold=0.85,
        fusion_strategy="weighted",
    )
    base.update(overrides)
    return WranglePlan(**base)


def registry_with(*names):
    registry = SourceRegistry()
    for name in names:
        registry.register(MemorySource(name, [{"product": "a", "price": 1.0}]))
    return registry


def fired(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


class TestDataflowChecks:
    def test_real_dataflow_is_clean(self):
        """No graph rule exists (PV001/PV002 are retired) because a real
        ``Dataflow`` cannot be built dangling or cyclic: a dependency
        must already be defined when its dependant is added."""
        flow = Dataflow()
        flow.add("probe", lambda inputs: None)
        flow.add("plan", lambda inputs: None, ("probe",))
        with pytest.raises(DataflowError):
            flow.add("fuse", lambda inputs: None, ("resolve",))
        with pytest.raises(DataflowError):
            flow.add("loop", lambda inputs: None, ("loop",))
        assert flow.dependency_map() == {"probe": (), "plan": ("probe",)}


class TestPlanChecks:
    def test_unregistered_source_pv003(self, gate):
        report = gate(
            plan=good_plan(sources=["shop", "ghost"]),
            registry=registry_with("shop"),
        )
        (finding,) = fired(report, "PV003")
        assert finding.severity is Severity.ERROR
        assert "ghost" in finding.message

    def test_out_of_range_thresholds_pv005(self, gate):
        report = gate(
            plan=good_plan(match_threshold=1.4, er_threshold=-0.1)
        )
        findings = fired(report, "PV005")
        assert {d.location.node for d in findings} == {
            "match_threshold",
            "er_threshold",
        }
        assert all(d.severity is Severity.ERROR for d in findings)

    def test_well_formed_plan_is_clean(self, gate):
        report = gate(
            plan=good_plan(),
            registry=registry_with("shop"),
            user=UserContext("u", TARGET),
            data=DataContext(),
        )
        assert report.ok, report.render()


class TestFusionChecks:
    def test_unknown_strategy_pv007(self, gate):
        report = gate(plan=good_plan(fusion_strategy="quorum"))
        findings = fired(report, "PV007")
        assert findings and findings[0].severity is Severity.ERROR
        assert "quorum" in findings[0].message

    def test_unknown_override_strategy_pv007(self, gate):
        report = gate(
            plan=good_plan(fusion_overrides={"price": "bogus"})
        )
        findings = fired(report, "PV007")
        assert findings
        # Override findings name the exact override, not just the plan.
        assert findings[0].location.node == "fusion_overrides.price"

    def test_override_on_unknown_attribute_pv007(self, gate):
        report = gate(
            plan=good_plan(fusion_overrides={"colour": "median"}),
            user=UserContext("u", TARGET),
        )
        findings = fired(report, "PV007")
        assert any("colour" in d.message for d in findings)

    def test_median_on_non_numeric_attribute_warns_pv007(self, gate):
        report = gate(
            plan=good_plan(fusion_overrides={"product": "median"}),
            user=UserContext("u", TARGET),
        )
        (finding,) = fired(report, "PV007")
        assert finding.severity is Severity.WARNING
        assert report.ok  # warnings never block execution

    def test_missing_master_data_pv007(self, gate):
        report = gate(
            plan=good_plan(),
            data=DataContext("empty"),
            master_key="catalog",
        )
        (finding,) = fired(report, "PV007")
        assert finding.severity is Severity.ERROR
        assert "catalog" in finding.message

    def test_recency_without_any_date_attribute_warns_pv007(self, gate):
        dateless = Schema((Attribute("product", DataType.STRING),))
        report = gate(
            plan=good_plan(fusion_strategy="recent"),
            user=UserContext("u", dateless),
        )
        (finding,) = fired(report, "PV007")
        assert finding.severity is Severity.WARNING


class TestUserContextChecks:
    def test_negative_weight_pv006(self, gate):
        # _normalised only requires a positive sum, so a negative raw
        # weight survives normalisation — exactly what PV006 catches.
        user = UserContext(
            "u",
            TARGET,
            weights={Dimension.ACCURACY: 1.5, Dimension.COST: -0.5},
        )
        report = gate(user=user)
        findings = fired(report, "PV006")
        assert findings and findings[0].severity is Severity.ERROR

    def test_floor_on_zero_weight_dimension_warns_pv008(self, gate):
        user = UserContext(
            "u",
            TARGET,
            weights={Dimension.ACCURACY: 1.0},
            floors={Dimension.TIMELINESS: 0.5},
        )
        report = gate(user=user)
        (finding,) = fired(report, "PV008")
        assert finding.severity is Severity.WARNING

    def test_zero_budget_with_selected_sources_pv008(self, gate):
        user = UserContext("u", TARGET, budget=0.0)
        report = gate(user=user, plan=good_plan())
        findings = fired(report, "PV008")
        assert findings and findings[0].severity is Severity.ERROR

    def test_plan_cost_exceeding_budget_pv008(self, gate):
        registry = SourceRegistry()
        registry.register(
            MemorySource("dear", [{"product": "a"}], cost_per_access=9.0)
        )
        user = UserContext("u", TARGET, budget=5.0)
        report = gate(
            user=user, plan=good_plan(sources=["dear"]), registry=registry
        )
        findings = fired(report, "PV008")
        assert any("exceeds the budget" in d.message for d in findings)


class TestReportBehaviour:
    def test_raise_on_error_carries_diagnostics(self, gate):
        report = gate(plan=good_plan(er_threshold=2.0))
        with pytest.raises(PlanValidationError) as failure:
            report.raise_on_error()
        assert failure.value.diagnostics
        assert failure.value.diagnostics[0].rule == "PV005"

    def test_raise_on_error_passes_through_when_clean(self, gate):
        report = gate(plan=good_plan())
        assert report.raise_on_error() is report

    def test_rule_ids_and_render(self, gate):
        report = gate(
            plan=good_plan(er_threshold=2.0, fusion_strategy="bogus"),
            schemas={"shop": Schema.of("product")},  # probed: no TC001
        )
        assert report.rule_ids() == {"PV005", "PV007"}
        text = report.render()
        assert "PV005" in text and "PV007" in text

    def test_validator_never_executes_plan_machinery(self):
        """Validation is static: no source access, no node computation."""
        registry = registry_with("shop")
        source = registry.get("shop")
        PlanValidator().validate(
            plan=good_plan(),
            registry=registry,
            user=UserContext("u", TARGET),
        )
        assert source.accesses == 0
