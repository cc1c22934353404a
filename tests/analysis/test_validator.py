"""The static context validator: every user-written defect caught with its
rule id, through the gate that runs it (the ``gate`` fixture), and every
retired rule arm's defect absent from composed plans (the ``draws``
fixture)."""

import pytest

from conftest import TARGET, assert_never_fires, good_plan, registry_with
from repro.analysis.diagnostics import Severity
from repro.analysis.validator import PlanValidator
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.dataflow import Dataflow
from repro.core.wrangler import Wrangler
from repro.errors import ContextError, DataflowError, PlanValidationError
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource


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
        assert flow.nodes() == ["probe", "plan"]


class TestPlanChecks:
    def test_unregistered_source_pv003(self, draws):
        """PV003 is retired: the planner selects from the registry, so
        it never selects an unregistered source."""
        assert_never_fires(draws, "PV003", "plan selects an unregistered source")

    def test_out_of_range_thresholds_pv005(self, draws):
        """PV005 is retired: ``match_threshold = 0.5 + 0.2 * w`` and the
        ER threshold is clamped to [0.75, 0.95], so a plan leaves [0, 1]
        only under an accuracy weight PV006 already refuses."""
        assert_never_fires(draws, "PV005", "plan threshold outside [0, 1]")
        extreme = UserContext(
            "u", TARGET,
            weights={Dimension.ACCURACY: -3.0, Dimension.COST: 4.0},
        )
        wrangler = Wrangler(extreme, DataContext())
        wrangler.add_source(MemorySource("shop", [{"product": "a"}]))
        report = wrangler.preflight()
        assert {d.location.node for d in fired(report, "PV006")} == {
            "accuracy", "cost",
        }
        assert not report.ok

    def test_well_formed_plan_is_clean(self, gate):
        report = gate(
            plan=good_plan("shop"),
            registry=registry_with("shop"),
            user=UserContext("u", TARGET),
            data=DataContext(),
        )
        assert report.ok, report.render()


class TestFusionChecks:
    def test_unknown_strategy_pv007(self, draws):
        """PV007's strategy arm is retired: the planner picks "recent"
        or "weighted"."""
        assert_never_fires(draws, "PV007", "unknown fusion strategy")

    def test_unknown_override_strategy_pv007(self, draws):
        assert_never_fires(
            draws, "PV007", "override names an unknown strategy"
        )

    def test_override_on_unknown_attribute_pv007(self, draws):
        """The planner only overrides attributes of the target schema."""
        assert_never_fires(
            draws, "PV007", "override on an attribute absent from the target"
        )

    def test_median_on_non_numeric_attribute_warns_pv007(self, draws):
        """The planner only overrides numeric attributes with median."""
        assert any(outcome.plan.fusion_overrides for outcome in draws)
        assert_never_fires(
            draws, "PV007", "median override on a non-numeric attribute"
        )

    def test_missing_master_data_pv007(self, gate):
        report = gate(data=DataContext("empty"), master_key="catalog")
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

    def test_floor_outside_unit_interval_is_refused(self, draws):
        """PV006's floor arm is retired: ``UserContext`` refuses a floor
        outside [0, 1] when it is written."""
        assert_never_fires(draws, "PV006", "floor outside [0, 1]")
        with pytest.raises(ContextError):
            UserContext("u", TARGET, floors={Dimension.ACCURACY: 1.5})

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

    def test_zero_budget_with_selected_sources_pv008(self):
        """Free sources under a zero budget: the spend is 0 <= 0, so the
        plan runs (PV008's zero-budget arm used to refuse it)."""
        user = UserContext.precision_first("u", TARGET, budget=0.0)
        wrangler = Wrangler(user, DataContext())
        for name in ("shop", "mall"):
            wrangler.add_source(
                MemorySource(
                    name,
                    [{"product": "anvil", "price": "$12.00"}],
                    cost_per_access=0.0,
                )
            )
        result = wrangler.run()
        assert sorted(result.plan.sources) == ["mall", "shop"]
        assert not fired(wrangler.preflight(), "PV008")

    def test_plan_cost_exceeding_budget_pv008(self, draws):
        """PV008's budget arms are retired: source selection stops before
        a source would take the spend past the budget."""
        assert any(
            outcome.wrangler.user.budget < float("inf") for outcome in draws
        )
        assert_never_fires(
            draws, "PV008",
            "plan spends more than the budget (both budget arms)",
        )


class TestReportBehaviour:
    def test_raise_on_error_carries_diagnostics(self, gate):
        report = gate(master_key="catalog")
        with pytest.raises(PlanValidationError) as failure:
            report.raise_on_error()
        assert failure.value.diagnostics
        assert failure.value.diagnostics[0].rule == "PV007"

    def test_raise_on_error_passes_through_when_clean(self, gate):
        report = gate()
        assert report.raise_on_error() is report

    def test_rule_ids_and_render(self, gate):
        user = UserContext(
            "u", TARGET,
            weights={Dimension.ACCURACY: 1.5, Dimension.COST: -0.5},
        )
        report = gate(user=user, master_key="catalog")
        assert report.rule_ids() == {"PV006", "PV007"}
        text = report.render()
        assert "PV006" in text and "PV007" in text

    def test_validator_never_executes_plan_machinery(self):
        """Validation is static: no source access, no node computation."""
        registry = registry_with("shop")
        source = registry.get("shop")
        PlanValidator().validate(
            good_plan("shop"), UserContext("u", TARGET), DataContext()
        )
        assert source.accesses == 0
