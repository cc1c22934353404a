"""End-to-end telemetry: what a full Wrangler run reports about itself."""

import datetime

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.feedback.types import (
    DuplicateFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.obs import validate_telemetry
from repro.obs.trace import MAX_ROOT_SPANS
from repro.sources.memory import MemorySource

TODAY = datetime.date(2016, 3, 15)


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=30, n_sources=4, seed=77)


def make_wrangler(world):
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=50.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(user, data, master_key="catalog",
                        join_attribute="product", today=TODAY)
    for name, rows in world.source_rows.items():
        wrangler.add_source(
            MemorySource(name, rows, cost_per_access=world.specs[name].cost)
        )
    return wrangler


class TestRunTelemetry:
    def test_snapshot_is_schema_valid(self, world):
        result = make_wrangler(world).run()
        assert result.telemetry is not None
        assert validate_telemetry(result.telemetry) == []

    def test_every_pipeline_stage_is_labelled(self, world):
        result = make_wrangler(world).run()
        nodes = result.telemetry["dataflow"]["nodes"]
        stages = {stats["stage"] for stats in nodes.values()}
        assert {
            "probe", "planning", "extraction", "matching", "mapping",
            "quality", "selection", "resolution", "fusion", "repair",
        } <= stages

    def test_run_span_wraps_per_node_spans(self, world):
        result = make_wrangler(world).run()
        roots = [s for s in result.telemetry["spans"]
                 if s["name"] == "wrangle.run"]
        assert len(roots) == 1
        children = {child["name"] for child in roots[0]["children"]}
        assert "dataflow:fuse" in children
        assert "dataflow:resolve" in children
        assert "quality:wrangled" in children
        assert roots[0]["attributes"]["nodes_recomputed"] > 0

    def test_per_node_timings_and_hit_miss_counts(self, world):
        wrangler = make_wrangler(world)
        first = wrangler.run()
        nodes = first.telemetry["dataflow"]["nodes"]
        assert all(stats["runs"] == 1 for stats in nodes.values())
        assert all(stats["seconds"] >= 0.0 for stats in nodes.values())
        counters = first.telemetry["metrics"]["counters"]
        assert counters["dataflow.misses"] == len(nodes)

        second = wrangler.run()
        nodes = second.telemetry["dataflow"]["nodes"]
        # A memoised refresh recomputes nothing and hits the cache instead.
        assert all(stats["runs"] == 1 for stats in nodes.values())
        assert second.telemetry["metrics"]["counters"]["dataflow.hits"] > 0
        histogram = second.telemetry["metrics"]["histograms"]
        assert histogram["dataflow.compute_seconds"]["count"] == len(nodes)


class TestFeedbackTelemetry:
    def test_feedback_invalidates_exactly_the_affected_cone(self, world):
        """E6 in miniature: value feedback forces fuse+select.  A verdict
        on no known entity moves no belief, so select and fuse re-run to
        the values they had and the rest of their cone is cut off —
        and acquisition stays memoised."""
        wrangler = make_wrangler(world)
        wrangler.run()
        wrangler.apply_feedback(
            [ValueFeedback(entity="x", attribute="price", is_correct=True)]
        )
        spans = wrangler.telemetry.tracer.find("feedback.apply")
        assert len(spans) == 1
        assert spans[0].attributes["items"] == 1
        assert spans[0].attributes["invalidated"] == ["fuse", "select"]

        result = wrangler.run()
        nodes = result.telemetry["dataflow"]["nodes"]
        recomputed = {n for n, s in nodes.items() if s["runs"] == 2}
        assert recomputed == {"select", "fuse"}
        cut_off = {n for n, s in nodes.items() if s["cutoffs"] == 1}
        assert cut_off == {"rank", "translate", "refit", "resolve", "repair"}
        for name in world.source_rows:
            assert nodes[f"acquire:{name}"]["runs"] == 1
            assert nodes[f"acquire:{name}"]["invalidations"] == 0
        counters = result.telemetry["metrics"]["counters"]
        assert counters["feedback.items"] == 1
        assert counters["feedback.nodes_invalidated"] == 2
        assert counters["feedback.propagations"] == 1
        assert counters["dataflow.nodes_cutoff"] == 5
        # The recomputed nodes were re-timed under fresh spans.
        assert len(wrangler.telemetry.tracer.find("dataflow:fuse")) == 2

    def test_feedback_that_moves_nothing_stops_where_it_entered(self, world):
        """A relevance verdict re-selects the same mappings in the same
        order and stops at ``rank``; a duplicate verdict too few to refit
        the threshold stops at ``refit``."""
        wrangler = make_wrangler(world)
        first = wrangler.run()
        translated = wrangler.working.get("table", "translated")

        def recomputed_by(items):
            before = {
                name: stats["runs"]
                for name, stats in wrangler.flow.node_stats().items()
            }
            wrangler.apply_feedback(items)
            wrangler.run()
            return {
                name for name, stats in wrangler.flow.node_stats().items()
                if stats["runs"] > before[name]
            }

        assert recomputed_by([RelevanceFeedback(
            source_name=first.plan.sources[0], is_relevant=True,
        )]) == {"select", "rank"}
        assert recomputed_by([DuplicateFeedback(
            rid_a=translated[0].rid, rid_b=translated[1].rid,
            is_duplicate=False,
        )]) == {"refit"}

    def test_a_long_feedback_session_keeps_span_retention_flat(self, world):
        """300 feedback ticks: the tracer keeps the latest roots only, so
        each run's snapshot stays the size it was after 50 ticks; the
        evicted roots are counted."""

        def span_count(spans):
            return sum(1 + span_count(span["children"]) for span in spans)

        wrangler = make_wrangler(world)
        wrangler.run()
        sizes = {}
        for tick in range(1, 301):
            wrangler.apply_feedback([ValueFeedback(
                entity="x", attribute="price", is_correct=tick % 2 == 0,
            )])
            result = wrangler.run()
            if tick in (50, 300):
                sizes[tick] = span_count(result.telemetry["spans"])
        roots = result.telemetry["spans"]
        assert len(roots) == MAX_ROOT_SPANS
        assert [span["name"] for span in roots[-2:]] == [
            "feedback.apply", "wrangle.run",
        ]
        assert sizes[300] == sizes[50]
        # One cold run, then two roots a tick.
        dropped = result.telemetry["metrics"]["counters"]["obs.spans_dropped"]
        assert dropped == 1 + 2 * 300 - MAX_ROOT_SPANS

    def test_bounded_evaluator_reports_against_budget(self, world):
        from repro.model.records import Table
        from repro.scale.access import AccessConstraint, BoundedEvaluator
        from repro.scale.queries import Atom, ConjunctiveQuery, Variable

        wrangler = make_wrangler(world)
        offers = Table.from_rows(
            "offers",
            [{"product": "tv", "retailer": r} for r in ("acme", "globex")],
        )
        evaluator = BoundedEvaluator(
            [AccessConstraint("offers", ("product",), bound=10)],
            budget=100,
            metrics=wrangler.telemetry.metrics,
        )
        query = ConjunctiveQuery(
            ("r",),
            (Atom("offers", {"product": "tv", "retailer": Variable("r")}),),
        )
        rows = evaluator.evaluate(query, {"offers": offers})
        assert len(rows) == 2
        counters = wrangler.telemetry.metrics.snapshot()["counters"]
        assert counters["bounded.queries"] == 1
        assert counters["bounded.accesses"] == 2
        gauges = wrangler.telemetry.metrics.snapshot()["gauges"]
        assert gauges["bounded.budget"] == 100
        assert gauges["bounded.budget_remaining"] == 98
