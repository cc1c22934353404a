"""The cost checks through the gate that runs them: the pooled row bound
and the spend they read off the registered sources, the CC blow-up rules
on composed worlds at a scale that fires them, and the note on a plan no
budget bounds."""

from conftest import TARGET, assert_never_fires, good_plan
from repro import DataContext, MemorySource, UserContext, Wrangler
from repro.analysis.cost.rules import (
    DEFAULT_ROWS,
    estimated_pairs,
    planned_rows,
    source_facts,
)
from repro.analysis.diagnostics import Severity
from repro.datagen import TARGET_SCHEMA, generate_world
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.base import PROBE_COST_FRACTION
from repro.sources.registry import SourceRegistry


def source(name, rows, cost=1.0, hinted=True):
    """A memory source of ``rows`` rows; ``hinted`` memoises its row count
    the way the preflight probe does, otherwise it stays cold."""
    built = MemorySource(
        name, [{"product": f"{name} {i}"} for i in range(rows)],
        cost_per_access=cost,
    )
    if hinted:
        built.size_hint()
    return built


def registry_of(*sources):
    registry = SourceRegistry()
    for built in sources:
        registry.register(built)
    return registry


def plan_over(*names):
    return good_plan(*names, er_attributes=("name",))


def fired(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


class TestEstimatePropagation:
    def test_rows_flow_from_acquire_through_translate(self):
        registry = registry_of(source("a", 100), source("b", 40))
        facts = source_facts(registry)
        assert facts["a"].rows == 100.0
        assert planned_rows(plan_over("a", "b"), facts) == 140.0

    def test_unhinted_source_assumes_the_probe_sample_size(self):
        registry = registry_of(source("a", 100, hinted=False))
        assert planned_rows(plan_over("a"), source_facts(registry)) == (
            DEFAULT_ROWS
        )

    def test_unselected_source_contributes_nothing(self, gate):
        # The rejected source is still probed, so its probe fraction is
        # spent; its rows never reach the resolve.
        registry = registry_of(source("a", 100, cost=2.0),
                               source("b", 40, cost=3.0))
        assert planned_rows(plan_over("a"), source_facts(registry)) == 100.0
        (note,) = fired(gate(plan=plan_over("a"), registry=registry), "CC006")
        spend = 5.0 * PROBE_COST_FRACTION + 2.0
        assert f"estimated access cost {spend:.2f} " in note.message

    def test_probe_charges_every_registered_source(self, gate):
        registry = registry_of(source("a", 10, cost=2.0),
                               source("b", 10, cost=3.0))
        plan = plan_over()  # nothing selected: only the probe spends
        (note,) = fired(gate(plan=plan, registry=registry), "CC006")
        assert f"{5.0 * PROBE_COST_FRACTION:.2f}" in note.message

    def test_every_composed_kind_has_an_estimate(self, draws):
        """CC009 is retired with the ``input`` row: every node kind the
        wrangler composes has a stage."""
        assert_never_fires(draws, "CC009", "node kind with no estimate")


class TestBlowUpRules:
    def test_blocked_resolve_of_the_same_table_is_clean(self, gate):
        registry = registry_of(source("a", 1_000))
        _, full = estimated_pairs(1_000.0)
        assert not full  # token blocking, not all pairs
        report = gate(plan=plan_over("a"), registry=registry)
        assert not fired(report, "CC004")
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

    def test_few_small_sources_pool_without_complaint(self, gate):
        sources = [source(f"s{i}", 50) for i in range(3)]
        report = gate(
            plan=plan_over(*(s.name for s in sources)),
            registry=registry_of(*sources),
        )
        assert not fired(report, "CC004")

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
    def test_cc006_unbounded_budget_is_an_advisory(self, gate):
        report = gate(
            plan=plan_over("a"), registry=registry_of(source("a", 10)),
            user=UserContext("u", TARGET),
        )
        (note,) = fired(report, "CC006")
        # INFO severity: in the report, but it never refuses the plan.
        assert note.severity is Severity.INFO
        assert report.ok

    def test_finite_user_budget_suppresses_cc006(self, gate):
        report = gate(
            plan=plan_over("a"), registry=registry_of(source("a", 10)),
            user=UserContext("u", TARGET, budget=25.0),
        )
        assert not fired(report, "CC006")


class TestReportShape:
    def test_findings_are_stably_ordered(self, gate):
        def report():
            registry = registry_of(
                *(source(f"s{i}", 5_000, hinted=i % 2 == 0)
                  for i in range(4))
            )
            return gate(plan=plan_over(*registry.names()), registry=registry)

        first, second = report(), report()
        assert {"CC004", "CC006"} <= first.rule_ids()
        assert first.diagnostics == second.diagnostics
