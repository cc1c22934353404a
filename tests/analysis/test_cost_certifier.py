"""The cost certifier through the gate that runs it: estimate propagation
over hand-built stand-ins, the CC blow-up rules on composed worlds at a
scale that fires them, and the note on a plan no budget bounds."""

from types import SimpleNamespace

import pytest

from conftest import TARGET, assert_never_fires, good_plan
from repro import DataContext, MemorySource, UserContext, Wrangler
from repro.analysis.diagnostics import Severity
from repro.datagen import TARGET_SCHEMA, generate_world
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.base import PROBE_COST_FRACTION


class StubSource:
    def __init__(self, rows, cost=1.0):
        self._rows = rows
        self.metadata = SimpleNamespace(
            cost_per_access=cost, kind="structured"
        )

    def size_hint(self):
        if self._rows is None:
            raise RuntimeError("no hint published")
        return self._rows


class StubRegistry:
    def __init__(self, **sources):
        self._sources = sources

    def names(self):
        return sorted(self._sources)

    def get(self, name):
        return self._sources[name]


def plan_over(*names, er_attributes=("name",)):
    return good_plan(*names, er_attributes=er_attributes)


@pytest.fixture
def certify(gate):
    """The ``PlanCostReport`` the gate's report carries."""

    def certify(plan, registry, **artifacts):
        return gate(plan=plan, registry=registry, **artifacts).cost

    return certify


def rules(report, min_severity=Severity.INFO):
    return {d.rule for d in report.diagnostics(min_severity=min_severity)}


class TestEstimatePropagation:
    def test_synthetic_topology_covers_the_canonical_pipeline(self, certify):
        report = certify(
            plan_over("a"), StubRegistry(a=StubSource(100))
        )
        names = set(report.estimates)
        assert {"probe", "plan", "acquire:a", "translate", "resolve",
                "fuse", "repair"} <= names

    def test_rows_flow_from_acquire_through_translate(self, certify):
        registry = StubRegistry(a=StubSource(100), b=StubSource(40))
        report = certify(plan_over("a", "b"), registry)
        assert report.estimates["acquire:a"].rows == 100.0
        assert report.estimates["translate"].rows == 140.0
        assert report.estimates["translate"].confidence == "exact"

    def test_unselected_source_contributes_nothing(self, certify):
        from repro.core.dataflow import Dataflow

        # A real dataflow can carry acquire nodes for sources the plan
        # rejected; those cost nothing and emit no rows.
        flow = Dataflow()
        flow.add("acquire:b", lambda inputs: None, stage="extraction")
        registry = StubRegistry(a=StubSource(100), b=StubSource(40))
        report = certify(plan_over("a"), registry, dataflow=flow)
        assert report.estimates["acquire:b"].rows == 0.0
        assert report.estimates["acquire:b"].access_cost == 0.0
        # And the synthetic walk only materialises planned sources.
        synthetic = certify(plan_over("a"), registry)
        assert "acquire:b" not in synthetic.estimates
        assert synthetic.estimates["translate"].rows == 100.0

    def test_probe_charges_every_registered_source(self, certify):
        registry = StubRegistry(
            a=StubSource(10, cost=2.0), b=StubSource(10, cost=3.0)
        )
        report = certify(plan_over("a"), registry)
        assert report.estimates["probe"].access_cost == pytest.approx(
            5.0 * PROBE_COST_FRACTION
        )

    def test_unhinted_source_degrades_to_assumed_with_cc001(self, certify):
        report = certify(plan_over("a"), StubRegistry(a=StubSource(None)))
        assert report.estimates["acquire:a"].confidence == "assumed"
        assert report.estimates["translate"].confidence == "assumed"
        assert "CC001" in rules(report)

    def test_fusion_shrinks_rows_by_the_duplication_factor(self, certify):
        registry = StubRegistry(a=StubSource(60), b=StubSource(60))
        report = certify(plan_over("a", "b"), registry)
        assert report.estimates["fuse"].rows == pytest.approx(60.0)

    def test_real_dataflow_topology_is_reused_not_rederived(self, certify):
        from repro.core.dataflow import Dataflow

        flow = Dataflow()
        flow.add("probe", lambda inputs: None, stage="probe")
        flow.add("plan", lambda inputs: None, ("probe",), stage="planning")
        report = certify(
            plan_over("a"), StubRegistry(a=StubSource(10)), dataflow=flow
        )
        assert set(report.estimates) == {"probe", "plan"}
        # And the predicted seconds land back on the dataflow's nodes.
        costs = flow.cost_map()
        assert costs["probe"] is not None
        assert costs["plan"] is not None

    def test_every_composed_kind_has_an_estimate(self, draws):
        """CC009 is retired with the ``input`` row: every node kind the
        wrangler composes has an operator row with an estimate."""
        assert_never_fires(draws, "CC009", "node kind with no estimate")


class TestBlowUpRules:
    def test_blocked_resolve_of_the_same_table_is_clean(self, certify):
        report = certify(
            plan_over("a"), StubRegistry(a=StubSource(1_000))
        )
        assert "(token)" in report.estimates["resolve"].detail
        assert report.ok

    def test_cc004_cross_source_join_warns_at_scale(self):
        # 800 products over 6 retailers, every one selected: ~3,150 rows
        # pooled into one resolve.
        world = generate_world(n_products=800, n_sources=6, seed=2016)
        user = UserContext(
            "u", TARGET_SCHEMA, weights={Dimension.COMPLETENESS: 1.0}
        )
        wrangler = Wrangler(user, DataContext())
        for name, rows in world.source_rows.items():
            wrangler.add_source(MemorySource(name, rows))
        report = wrangler.preflight()
        assert "CC004" in report.rule_ids()
        assert report.ok  # a warning: the plan still runs

    def test_few_small_sources_pool_without_complaint(self, certify):
        sources = {f"s{i}": StubSource(50) for i in range(3)}
        report = certify(plan_over(*sources), StubRegistry(**sources))
        assert "CC004" not in rules(report)

    def test_cc008_constraint_discovery_dominating_repair(self):
        # A wide table: 1,700 rows x 25 attributes is ~1.06M candidate
        # dependencies for constraint discovery to mine.
        schema = Schema(
            (Attribute("sensor", DataType.STRING, required=True),)
            + tuple(
                Attribute(f"reading_{k:02d}", DataType.INTEGER)
                for k in range(1, 25)
            )
        )
        rows = [
            {"sensor": f"sensor {i}",
             **{f"reading_{k:02d}": (i * k) % 97 for k in range(1, 25)}}
            for i in range(1_700)
        ]

        def rule_ids(discover):
            wrangler = Wrangler(
                UserContext("u", schema), DataContext(),
                discover_constraints=discover,
            )
            wrangler.add_source(MemorySource("sensors", rows))
            return wrangler.preflight().rule_ids()

        assert "CC008" in rule_ids(True)
        assert "CC008" not in rule_ids(False)


class TestBudgetAdmission:
    def test_cc006_unbounded_budget_is_an_advisory(self, certify):
        user = UserContext("u", TARGET)
        report = certify(
            plan_over("a"), StubRegistry(a=StubSource(10)), user=user
        )
        assert "CC006" in rules(report)
        # INFO severity: invisible at the gate's warning floor.
        assert "CC006" not in rules(report, min_severity=Severity.WARNING)

    def test_finite_user_budget_suppresses_cc006(self, certify):
        user = UserContext("u", TARGET, budget=25.0)
        report = certify(
            plan_over("a"), StubRegistry(a=StubSource(10)), user=user
        )
        assert "CC006" not in rules(report)


class TestReportShape:
    def test_totals_sum_the_per_node_estimates(self, certify):
        report = certify(plan_over("a"), StubRegistry(a=StubSource(100)))
        assert report.total_access_cost == pytest.approx(
            sum(e.access_cost for e in report.estimates.values())
        )
        assert report.total_work == pytest.approx(
            sum(e.work for e in report.estimates.values())
        )
        assert report.predicted_seconds > 0.0

    def test_to_dict_is_the_snapshot_contract(self, certify):
        report = certify(plan_over("a"), StubRegistry(a=StubSource(100)))
        payload = report.to_dict()
        assert set(payload) == {"nodes", "totals"}
        assert list(payload["nodes"]) == sorted(payload["nodes"])

    def test_findings_are_stably_ordered(self, certify):
        registry = StubRegistry(a=StubSource(None), b=StubSource(None))
        first = certify(plan_over("a", "b"), registry)
        second = certify(plan_over("a", "b"), registry)
        assert first.findings == second.findings
